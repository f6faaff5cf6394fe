// Tunables of the CAD detector (paper Table I and Section VI-H).
#ifndef CAD_CORE_CAD_OPTIONS_H_
#define CAD_CORE_CAD_OPTIONS_H_

#include <string>

#include "common/status.h"

namespace cad::obs {
class Registry;
class Tracer;
}  // namespace cad::obs

namespace cad::core {

struct CadOptions {
  // Sliding window w and step s, in time points (paper suggests
  // w in [0.01|T|, 0.03|T|] and s in [0.01w, 0.02w], with s >= 1).
  int window = 100;
  int step = 2;

  // Number of nearest neighbours per vertex in the TSG (Table II).
  int k = 10;

  // Correlation threshold tau: TSG edges with |corr| < tau are pruned.
  double tau = 0.5;

  // Correlation measure for TSG edges. false (default) = Pearson, the
  // paper's choice; true = Spearman rank correlation — robust to monotone
  // sensor distortions and heavy-tailed spikes at O(w log w) extra cost.
  bool use_spearman = false;

  // Threads for the O(n^2 w) window-correlation matrix (results are
  // bitwise-identical for any value). 1 = serial; worthwhile from a few
  // hundred sensors (IS-3..IS-5 scale).
  int n_threads = 1;

  // Outlier threshold theta on the ratio of co-appearance number RC_{v,r}
  // (Definition 7). The paper recommends ~0.3 under its global (n-1)
  // normalization, where a perfectly stable vertex sits at roughly
  // (community size - 1)/(n - 1) — i.e. theta is placed just below the
  // stable level. Under the default community normalization the stable
  // level is exactly 1.0, so the corresponding setting is just below 1:
  // with rc_window = 8, theta = 0.9 flags a vertex after a single full
  // defection round ((7*1 + 0)/8 = 0.875 < 0.9) while tolerating partial
  // peer churn — the "drop drastically" semantics of Section IV-C.
  double theta = 0.9;

  // RC computation (see co_appearance.h for why the defaults deviate from a
  // literal Equation 3 and how to switch back for ablation).
  // rc_window: transitions averaged into RC (0 = full history).
  int rc_window = 8;
  // rc_global_normalization: true = divide S by (n-1) as in Eq. 3; false =
  // divide by the vertex's previous community size - 1 (default).
  bool rc_global_normalization = false;

  // Time-domain footprint of an abnormal round in the per-point score /
  // label series: the trailing `window_mark_fraction` of the window.
  // 1.0 = the whole window [start_r, end_r) — the paper's sub-matrix-column
  // semantics, earliest possible first detection but up to w pre-onset
  // false-positive points per anomaly; values near s/w mark only the fresh
  // slice — near-perfect precision but detections lag by ~w/2. The default
  // 0.5 marks [start_r + w/2, end_r): the anomaly had to occupy roughly half
  // the window before correlations broke, so the trailing half is the best
  // single guess of the overlap (measured PA/DPA trade-off in EXPERIMENTS.md).
  double window_mark_fraction = 0.5;

  // Sensor attribution. V_Z collects the vertices that *entered* the outlier
  // set during the anomaly's rounds (vertices that were already outliers
  // beforehand are background isolates, not "affected"). When the anomaly
  // closes, a candidate is kept only if its RC is still below this cut —
  // genuinely defected sensors stay near 0 while community peers that were
  // merely grazed by the defection recover towards 1 immediately. -1 = auto
  // (0.75 * theta). If the cut would empty the set, all candidates are kept.
  double attribution_rc_cut = -1.0;

  double EffectiveAttributionCut() const {
    return attribution_rc_cut >= 0.0 ? attribution_rc_cut : 0.75 * theta;
  }

  // Rounds after a (re)start during which no abnormal decision is made and
  // n_r is not folded into mu / sigma: re-initializing the outlier state
  // (Algorithm 2 line 2 resets O_0) makes the first few rounds' variation
  // counts artifacts of the cold start, not data. -1 = auto
  // (max(2, rc_window)).
  int burn_in_rounds = -1;

  // Resolved burn-in value.
  int EffectiveBurnIn() const {
    if (burn_in_rounds >= 0) return burn_in_rounds;
    return rc_window > 2 ? rc_window : 2;
  }

  // Sigma multiplier eta in the abnormal-round rule |n_r - mu| >= eta * sigma
  // (paper sets eta = 3 via Chebyshev's inequality).
  double eta = 3.0;

  // Lower bound on sigma when applying the eta-sigma rule. The paper's rule
  // degenerates when the warm-up variance is 0 (any deviation triggers); a
  // small floor keeps behaviour sane on synthetic noise-free data. 0 is the
  // fully faithful setting.
  double min_sigma = 0.0;

  // Ablation switch (DESIGN.md §4.1): when false, a round is abnormal when
  // the raw outlier-variation count satisfies n_r >= fixed_xi, bypassing the
  // adaptive eta-sigma rule.
  bool use_sigma_rule = true;
  int fixed_xi = 1;

  // Observability (DESIGN.md "Observability"). nullptr = the process-wide
  // obs::Registry::Global() / obs::Tracer::Global(). Metrics are always
  // recorded (lock-free atomics); span tracing additionally requires the
  // resolved tracer to be Enable()d — the global one is off by default, so
  // the untraced hot path pays roughly one branch per span site.
  obs::Registry* metrics_registry = nullptr;
  obs::Tracer* tracer = nullptr;

  // Flight recorder (obs/flight_recorder.h): the engine keeps the last
  // `flight_log_capacity` rounds of decision provenance in a
  // preallocated ring. 0 disables recording (and every feature below).
  int flight_log_capacity = 256;
  // When set, the engine appends the rounds of every anomaly to this JSONL
  // file the moment the anomaly closes (the held subset, oldest first).
  std::string flight_log_path;
  // When set, a CAD_CHECK failure dumps the whole ring here (truncating)
  // before the process dies.
  std::string flight_crash_dump_path;

  // Exposition server (obs/exposition_server.h), honoured by StreamingCad
  // only: -1 (default) = no server; 0 = serve on an ephemeral 127.0.0.1
  // port (StreamingCad::exposition_port() reports it); 1..65535 = that port.
  int exposition_port = -1;

  // Validates the option set against a series length. The real-valued range
  // checks are written so that NaN fails them (every comparison with NaN is
  // false).
  [[nodiscard]] Status Validate(int series_length) const {
    if (window <= 0 || step <= 0) {
      return Status::InvalidArgument("window and step must be positive");
    }
    if (step >= window) {
      return Status::InvalidArgument("step must be smaller than window (s < w)");
    }
    if (window > series_length) {
      return Status::InvalidArgument("window exceeds series length");
    }
    if (k < 1) return Status::InvalidArgument("k must be >= 1");
    if (!(tau >= 0.0 && tau <= 1.0)) {
      return Status::InvalidArgument("tau must lie in [0, 1]");
    }
    if (!(theta >= 0.0 && theta <= 1.0)) {
      return Status::InvalidArgument("theta must lie in [0, 1]");
    }
    if (!(eta > 0.0)) return Status::InvalidArgument("eta must be positive");
    if (rc_window < 0) {
      return Status::InvalidArgument("rc_window must be >= 0");
    }
    if (n_threads < 1) {
      return Status::InvalidArgument("n_threads must be >= 1");
    }
    if (!(window_mark_fraction > 0.0 && window_mark_fraction <= 1.0)) {
      return Status::InvalidArgument(
          "window_mark_fraction must lie in (0, 1]");
    }
    if (!use_sigma_rule && fixed_xi < 1) {
      return Status::InvalidArgument("fixed_xi must be >= 1");
    }
    if (flight_log_capacity < 0) {
      return Status::InvalidArgument("flight_log_capacity must be >= 0");
    }
    if (flight_log_capacity == 0 &&
        (!flight_log_path.empty() || !flight_crash_dump_path.empty())) {
      return Status::InvalidArgument(
          "flight log / crash dump paths need flight_log_capacity > 0");
    }
    if (exposition_port < -1 || exposition_port > 65535) {
      return Status::InvalidArgument(
          "exposition_port must be -1 (off) or a port in [0, 65535]");
    }
    return Status::Ok();
  }
};

}  // namespace cad::core

#endif  // CAD_CORE_CAD_OPTIONS_H_
