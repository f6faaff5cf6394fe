// Real-time-safety function annotations (tier 6 of the static analysis
// stack, DESIGN.md "Real-time safety layers").
//
// The engine's headline property — the allocation-free, lock-disciplined
// round loop — is a *contract*, not an accident of the current code. These
// macros turn it into a machine-checked one, at two independent layers:
//
//  1. Compiler layer (Clang 20+). CAD_REALTIME / CAD_NONALLOCATING /
//     CAD_NONBLOCKING map to the function-effect attributes
//     [[clang::nonblocking]] / [[clang::nonallocating]]; with
//     -Wfunction-effects (promoted to an error by the top-level
//     CMakeLists when the compiler supports it) Clang verifies the whole
//     call graph at compile time. RealtimeSanitizer (-fsanitize=realtime,
//     the `rtsan` preset) enforces the same attributes dynamically.
//     Anywhere else — GCC, older Clang — every macro compiles to nothing.
//
//  2. Linter layer (every toolchain). tools/cad_lint rules CL007/CL008
//     scan the whole tree's token-level call graph: a function carrying
//     any of these annotations must not reach allocating or blocking
//     primitives through in-tree callees (CL007), and annotations must be
//     mutually compatible along calls and overrides (CL008). This layer
//     has no compiler dependency, so the contract holds on a GCC-only CI
//     exactly as it does under Clang.
//
// Tier semantics:
//
//   CAD_REALTIME          may neither allocate nor block. The strongest
//                         contract; carries [[clang::nonblocking]] (which
//                         subsumes nonallocating in Clang's effect
//                         system).
//   CAD_NONALLOCATING     may not allocate, but may block (e.g. a
//                         lock-taking accessor on a cold path).
//   CAD_NONBLOCKING       may not block, but may allocate.
//   CAD_REALTIME_AUDITED  the same contract as CAD_REALTIME for the
//                         linter and the human reader, but deliberately
//                         carries NO compiler attribute. Use it for
//                         functions whose zero-allocation property is a
//                         dynamic *capacity* invariant — push_back into a
//                         buffer whose capacity was grown during warm-up,
//                         Clear()-and-reuse workspaces — which Clang's
//                         type-level effect analysis cannot express (it
//                         must assume vector::push_back allocates). The
//                         invariant is still enforced twice: CL007 audits
//                         every such site (reasoned suppressions
//                         required), and the cad_alloc_hook operator-new
//                         counter proves 0 allocs/round dynamically
//                         (tests/core/engine_alloc_test.cc).
//
// Placement: like the Clang thread-safety macros, these are declaration
// attributes — put them after the parameter list, on the declaration AND
// on any out-of-line definition (the effect attributes are part of the
// function type, so the redeclarations must agree):
//
//   std::optional<EngineRound> Push(...) CAD_REALTIME_AUDITED;  // header
//   std::optional<EngineRound> DetectionEngine::Push(...)
//       CAD_REALTIME_AUDITED { ... }
#ifndef CAD_COMMON_REALTIME_H_
#define CAD_COMMON_REALTIME_H_

#if defined(__has_cpp_attribute)
#if __has_cpp_attribute(clang::nonblocking) && \
    __has_cpp_attribute(clang::nonallocating)
#define CAD_REALTIME_ATTRIBUTES_ENABLED 1
#endif
#endif
#ifndef CAD_REALTIME_ATTRIBUTES_ENABLED
#define CAD_REALTIME_ATTRIBUTES_ENABLED 0
#endif

#if CAD_REALTIME_ATTRIBUTES_ENABLED
// nonblocking subsumes nonallocating: anything that may allocate may block
// on the allocator's lock, so Clang folds the weaker effect into the
// stronger one.
#define CAD_REALTIME [[clang::nonblocking]]
#define CAD_NONALLOCATING [[clang::nonallocating]]
#define CAD_NONBLOCKING [[clang::nonblocking]]
#else
#define CAD_REALTIME       // no-op: compiler lacks function-effect analysis
#define CAD_NONALLOCATING  // no-op
#define CAD_NONBLOCKING    // no-op
#endif

// Lint-enforced only, on every compiler — see the header comment for when
// this tier is the right one.
#define CAD_REALTIME_AUDITED

#endif  // CAD_COMMON_REALTIME_H_
