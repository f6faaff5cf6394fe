// Figure 8: parameter study of CAD's five knobs — w/|T|, s/w, tau, theta and
// k — on PSM, one SMD subset and SWaT, reporting F1_PA and F1_DPA per
// setting. Also runs the DESIGN.md §4 ablations: the eta-sigma rule vs a
// fixed xi threshold, the community vs global (literal Eq. 3) RC
// normalization, and the RC window length.
#include <cstdio>
#include <functional>

#include "common/strings.h"
#include "core/cad_detector.h"
#include "eval/threshold.h"
#include "harness/harness.h"

namespace cad::bench {
namespace {

struct Study {
  std::string name;
  datasets::LabeledDataset dataset;
};

struct F1Pair {
  double pa = 0.0;
  double dpa = 0.0;
};

F1Pair RunCad(const Study& study, const core::CadOptions& options) {
  core::CadDetector detector(options);
  Result<core::DetectionReport> report = detector.Detect(
      study.dataset.test, study.dataset.has_train() ? &study.dataset.train
                                                    : nullptr);
  if (!report.ok()) return {};
  F1Pair f1;
  f1.pa = eval::BestF1Search(report.value().point_scores, study.dataset.labels,
                             eval::Adjustment::kPointAdjust, 0.005)
              .f1;
  f1.dpa = eval::BestF1Search(report.value().point_scores,
                              study.dataset.labels,
                              eval::Adjustment::kDelayPointAdjust, 0.005)
               .f1;
  return f1;
}

void Sweep(const std::vector<Study>& studies, const std::string& title,
           const std::vector<std::string>& labels,
           const std::function<core::CadOptions(const Study&, size_t)>& make) {
  std::printf("%s\n", title.c_str());
  std::vector<std::string> header = {"Dataset"};
  for (const std::string& label : labels) {
    header.push_back(label + " PA");
    header.push_back(label + " DPA");
  }
  TablePrinter table(header);
  for (const Study& study : studies) {
    std::vector<std::string> row = {study.name};
    for (size_t i = 0; i < labels.size(); ++i) {
      const F1Pair f1 = RunCad(study, make(study, i));
      row.push_back(Percent(f1.pa));
      row.push_back(Percent(f1.dpa));
    }
    table.AddRow(std::move(row));
  }
  table.Print();
  std::printf("\n");
}

int Main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::Parse(argc, argv, /*default_repeats=*/1);

  std::vector<Study> studies;
  studies.push_back({"PSM", MakeBenchDataset("PSM", 1200, 1600, 4, args.scale)});
  studies.push_back(
      {"SMD-7", MakeBenchDataset("SMD-7", 800, 1100, 3, args.scale)});
  studies.push_back(
      {"SWaT", MakeBenchDataset("SWaT", 1200, 1600, 4, args.scale)});

  std::printf("Figure 8: parameter study (F1_PA / F1_DPA per setting)\n\n");

  {
    const std::vector<double> ratios = {0.01, 0.02, 0.03, 0.05, 0.10};
    std::vector<std::string> labels;
    for (double r : ratios) labels.push_back("w/|T|=" + FormatDouble(r, 2));
    Sweep(studies, "Effect of w (window / series length):", labels,
          [&](const Study& study, size_t i) {
            core::CadOptions options = study.dataset.recommended;
            options.window = std::max(
                16, static_cast<int>(study.dataset.test.length() * ratios[i]));
            options.step = std::max(1, options.window / 50);
            return options;
          });
  }
  {
    const std::vector<double> ratios = {0.02, 0.05, 0.10, 0.20};
    std::vector<std::string> labels;
    for (double r : ratios) labels.push_back("s/w=" + FormatDouble(r, 2));
    Sweep(studies, "Effect of s (step / window):", labels,
          [&](const Study& study, size_t i) {
            core::CadOptions options = study.dataset.recommended;
            options.step = std::max(
                1, static_cast<int>(options.window * ratios[i]));
            return options;
          });
  }
  {
    const std::vector<double> taus = {0.1, 0.3, 0.5, 0.7, 0.9};
    std::vector<std::string> labels;
    for (double tau : taus) labels.push_back("tau=" + FormatDouble(tau, 1));
    Sweep(studies, "Effect of tau (correlation threshold):", labels,
          [&](const Study& study, size_t i) {
            core::CadOptions options = study.dataset.recommended;
            options.tau = taus[i];
            return options;
          });
  }
  {
    const std::vector<double> thetas = {0.5, 0.7, 0.8, 0.9, 0.95};
    std::vector<std::string> labels;
    for (double theta : thetas) labels.push_back("th=" + FormatDouble(theta, 2));
    Sweep(studies, "Effect of theta (outlier threshold, community-normalized):",
          labels, [&](const Study& study, size_t i) {
            core::CadOptions options = study.dataset.recommended;
            options.theta = thetas[i];
            return options;
          });
  }
  {
    const std::vector<int> ks = {5, 10, 15, 20};
    std::vector<std::string> labels;
    for (int k : ks) labels.push_back("k=" + std::to_string(k));
    Sweep(studies, "Effect of k (nearest neighbours):", labels,
          [&](const Study& study, size_t i) {
            core::CadOptions options = study.dataset.recommended;
            options.k = ks[i];
            return options;
          });
  }

  std::printf("Ablations (DESIGN.md section 4)\n\n");
  {
    Sweep(studies, "Abnormal-round rule: adaptive eta-sigma vs fixed xi:",
          {"3-sigma", "xi=2", "xi=4"},
          [&](const Study& study, size_t i) {
            core::CadOptions options = study.dataset.recommended;
            if (i > 0) {
              options.use_sigma_rule = false;
              options.fixed_xi = i == 1 ? 2 : 4;
            }
            return options;
          });
  }
  {
    Sweep(studies,
          "RC normalization: community (default) vs global (literal Eq. 3):",
          {"community", "global"},
          [&](const Study& study, size_t i) {
            core::CadOptions options = study.dataset.recommended;
            if (i == 1) {
              options.rc_global_normalization = true;
              options.theta = 0.3;  // the paper's setting for this form
            }
            return options;
          });
  }
  {
    const std::vector<double> fractions = {1.0, 0.75, 0.5, 0.25, 0.05};
    std::vector<std::string> labels;
    for (double f : fractions) labels.push_back("mark=" + FormatDouble(f, 2));
    Sweep(studies,
          "Round footprint (trailing window fraction marked abnormal):",
          labels, [&](const Study& study, size_t i) {
            core::CadOptions options = study.dataset.recommended;
            options.window_mark_fraction = fractions[i];
            return options;
          });
  }
  {
    Sweep(studies, "Correlation measure: Pearson (paper) vs Spearman:",
          {"pearson", "spearman"},
          [&](const Study& study, size_t i) {
            core::CadOptions options = study.dataset.recommended;
            options.use_spearman = i == 1;
            return options;
          });
  }
  {
    const std::vector<int> windows = {2, 4, 8, 16, 0};
    std::vector<std::string> labels = {"rcw=2", "rcw=4", "rcw=8", "rcw=16",
                                       "rcw=inf"};
    Sweep(studies, "RC window (0 = full-history prefix average):", labels,
          [&](const Study& study, size_t i) {
            core::CadOptions options = study.dataset.recommended;
            options.rc_window = windows[i];
            return options;
          });
  }
  args.WriteTelemetryIfRequested();
  return 0;
}

}  // namespace
}  // namespace cad::bench

int main(int argc, char** argv) { return cad::bench::Main(argc, argv); }
