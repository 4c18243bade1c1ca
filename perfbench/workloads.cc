// The three workloads of the TimeKD benchmark. Each runs in one process as
// a closed loop with one caller: a call starts when the previous one has
// returned. Every workload has the same shape:
//
//   host-speed sampler started (host_speed.h)
//   set-up (repeated; setup_s is the median)
//   timed loop for --seconds (fit: cold pipelines, distill: warm-cache
//     fits, serve: alternating B=1 and B=32 windows)
//   on fit/distill, after each iteration, a serving probe of the student
//     it trained, in the same windows
//   output checks
//
// All spans are opened here, around public calls into the layers; the
// program itself is not instrumented by the benchmark.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "checks.h"
#include "common/thread_pool.h"
#include "core/clm.h"
#include "core/config.h"
#include "core/timekd.h"
#include "data/datasets.h"
#include "data/time_series.h"
#include "data/window_dataset.h"
#include "llm/language_model.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "perfbench.h"
#include "spans.h"
#include "stats.h"
#include "tensor/tensor.h"
#include "text/prompt.h"

namespace perfbench {
namespace {

namespace core = timekd::core;
namespace data = timekd::data;
namespace obs = timekd::obs;
namespace tensor = timekd::tensor;
namespace text = timekd::text;

/// Set-up runs at least kMinSetups times and until kMinSetupSeconds have
/// passed (at most kMaxSetups): a millisecond set-up gets enough repeats
/// for a steady median, a ten-second one is not repeated more than needed.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 100;
constexpr double kMinSetupSeconds = 1.0;
/// Serving alternates a window of kWindowRequests B=1 requests with a
/// window of kWindowBatches B=32 batches (about the same wall each), so
/// both sample the whole run. 1000 requests put 10 samples beyond p99.
constexpr int64_t kWindowRequests = 1000;
constexpr int64_t kWindowBatches = 40;
constexpr int64_t kBatch = 32;
/// After each fit/distill iteration the probe serves for this share of the
/// iteration's wall (see TimedLoop), so it spreads over the run and serves
/// about as long as serve does. Shorter probes average fewer of
/// the host's fast/slow spells: at 0.25 and 0.5 the probe's p50 spread by
/// up to 0.09 and 0.15 over 10 seeds, against 0.02-0.05 on serve.
constexpr double kProbeShare = 1.0;
/// The EncodeSample replay runs on every kReplayStride-th train window.
constexpr int64_t kReplayStride = 8;

// ---------------------------------------------------------------------------
// Inputs: the quickstart configuration, seeded by --seed.
// ---------------------------------------------------------------------------

struct Inputs {
  data::WindowDataset train;
  data::WindowDataset val;
  data::WindowDataset test;
  core::TimeKdConfig config;
  core::TrainConfig train_config;
};

std::unique_ptr<Inputs> MakeInputs(uint64_t seed) {
  data::DatasetSpec spec = data::DefaultSpec(data::DatasetId::kEtth1, 600);
  spec.seed = seed;
  const data::TimeSeries series = data::MakeDataset(spec);
  const data::DataSplits splits = data::ChronologicalSplit(series, {0.7, 0.1});
  data::StandardScaler scaler;
  scaler.Fit(splits.train);
  constexpr int64_t kInputLen = 24;
  constexpr int64_t kHorizon = 12;

  core::TimeKdConfig config;
  config.num_variables = series.num_variables();
  config.input_len = kInputLen;
  config.horizon = kHorizon;
  config.freq_minutes = series.freq_minutes();
  config.d_model = 16;
  config.ffn_hidden = 32;
  config.llm.d_model = 32;
  config.llm.num_layers = 2;
  config.prompt.stride = 4;
  config.seed = seed;

  core::TrainConfig tc;
  tc.epochs = 6;
  tc.teacher_epochs = 12;
  tc.batch_size = 8;
  tc.lr = 2e-3;
  tc.seed = seed;

  return std::make_unique<Inputs>(Inputs{
      data::WindowDataset(scaler.Transform(splits.train), kInputLen, kHorizon),
      data::WindowDataset(scaler.Transform(splits.val), kInputLen, kHorizon),
      data::WindowDataset(scaler.Transform(splits.test), kInputLen, kHorizon),
      config, tc});
}

// ---------------------------------------------------------------------------
// Counters read through the public obs::GlobalMetrics() API.
// ---------------------------------------------------------------------------

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// Peak resident set of this process image (VmHWM). getrusage's ru_maxrss
/// would also count the pre-exec image of the parent that launched us.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(1 << 16, '\n');
  }
  return 0.0;
}

struct Snapshot {
  obs::MetricsSnapshot metrics = obs::GlobalMetrics().Snapshot();
  // The program's CPU time: the sampler's handler runs on this process too.
  double cpu_s = ProcessCpuSeconds() - Seconds(SamplerNs());
  int64_t wall_ns = NowNs();

  double Counter(const std::string& name) const {
    auto it = metrics.counters.find(name);
    return it == metrics.counters.end() ? 0.0
                                        : static_cast<double>(it->second);
  }
};

/// The counters a timed loop is charged with.
const std::vector<std::string>& LoopCounters() {
  static const std::vector<std::string> names = {
      "tensor/matmul_calls",     "tensor/matmul_flops",
      "tensor/matmul_bwd_calls", "tensor/elementwise_calls",
      "tensor/transpose_calls",  "nn/attention_calls",
      "optimizer/steps",         "clm/cache_reads",
      "clm/cache_misses",        "clm/encode_calls",
      "clm/encode_tokens"};
  return names;
}

/// Sums of counter deltas over one or more measured intervals.
struct CounterSums {
  std::map<std::string, double> counters;
  double cpu_s = 0.0;
  double wall_s = 0.0;

  void Add(const Snapshot& a, const Snapshot& b) {
    for (const std::string& name : LoopCounters()) {
      counters[name] += b.Counter(name) - a.Counter(name);
    }
    cpu_s += b.cpu_s - a.cpu_s;
    wall_s += Seconds(b.wall_ns - a.wall_ns);
  }
  double Get(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second;
  }
};

// ---------------------------------------------------------------------------
// Training phases, from timestamps taken in a TrainObserver.
// ---------------------------------------------------------------------------

class PhaseObserver : public obs::TrainObserver {
 public:
  void OnStep(const obs::StepRecord& r) override {
    steps_.push_back({r.phase == "teacher", r.epoch, NowNs(),
                      static_cast<int64_t>(r.seconds * 1e9)});
  }
  void OnEpoch(const obs::EpochRecord& r) override {
    epochs_.push_back({r.phase == "teacher", r.epoch, NowNs(), 0});
  }
  void Clear() {
    steps_.clear();
    epochs_.clear();
  }

  /// Phase intervals of one Fit.
  struct Phases {
    bool valid = false;
    int64_t teacher_start = 0, teacher_end = 0;
    int64_t student_start = 0, student_end = 0;
    std::vector<double> teacher_steps_s, student_steps_s;
    double val_s = 0.0;
  };

  Phases Derive() const {
    Phases p;
    const Event* first_teacher = Find(steps_, true, false);
    const Event* last_teacher_epoch = Find(epochs_, true, true);
    const Event* first_student = Find(steps_, false, false);
    const Event* last_student_epoch = Find(epochs_, false, true);
    if (!first_teacher || !last_teacher_epoch || !first_student ||
        !last_student_epoch) {
      return p;
    }
    p.valid = true;
    p.teacher_start = first_teacher->ts - first_teacher->step_ns;
    p.teacher_end = last_teacher_epoch->ts;
    p.student_start = first_student->ts - first_student->step_ns;
    p.student_end = last_student_epoch->ts;
    // Step period: consecutive OnStep timestamps within one epoch.
    for (size_t k = 1; k < steps_.size(); ++k) {
      const Event& prev = steps_[k - 1];
      const Event& cur = steps_[k];
      if (prev.teacher != cur.teacher || prev.epoch != cur.epoch) continue;
      (cur.teacher ? p.teacher_steps_s : p.student_steps_s)
          .push_back(Seconds(cur.ts - prev.ts));
    }
    // Validation: last student step of an epoch to that epoch's OnEpoch.
    for (const Event& e : epochs_) {
      if (e.teacher) continue;
      int64_t last_step = -1;
      for (const Event& s : steps_) {
        if (!s.teacher && s.epoch == e.epoch) last_step = s.ts;
      }
      if (last_step >= 0) p.val_s += Seconds(e.ts - last_step);
    }
    return p;
  }

 private:
  struct Event {
    bool teacher;
    int64_t epoch;
    int64_t ts;
    int64_t step_ns;
  };
  static const Event* Find(const std::vector<Event>& v, bool teacher,
                           bool last) {
    const Event* found = nullptr;
    for (const Event& e : v) {
      if (e.teacher != teacher) continue;
      found = &e;
      if (!last) break;
    }
    return found;
  }

  std::vector<Event> steps_;
  std::vector<Event> epochs_;
};

// ---------------------------------------------------------------------------
// Everything a run measures. Fields a workload does not exercise stay 0.
// ---------------------------------------------------------------------------

/// A timed call, on the program clock (NowNs). The end-to-end metrics
/// rescale it to nominal host speed; the per-layer ones use its wall.
struct Interval {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double seconds() const { return Seconds(end_ns - start_ns); }
};

struct Measurements {
  std::vector<Interval> setups;
  std::vector<Interval> fits;
  int64_t evaluations = 0;  // timed Evaluate(test) calls
  core::TimeKd::Metrics test;

  // Serving, in window order (see kWindowRequests / kWindowBatches).
  std::vector<Interval> b1;  // GetBatch + Predict per request
  std::vector<double> b1_get_batch_s;
  std::vector<double> b1_predict_s;
  std::vector<double> b1_peak_bytes;  // traced only
  std::vector<Interval> b32;          // GetBatch + Predict per batch
  std::vector<double> b32_predict_s;
  CounterSums b1_counters;
  double serve_peak_bytes = 0.0;  // traced only

  // Timed loop.
  int64_t iterations = 0;
  CounterSums loop;
  double tensor_peak_bytes = 0.0;
  std::vector<PhaseObserver::Phases> phases;

  // CLM (traced fit only).
  std::vector<double> encode_s;
  std::vector<double> cache_put_s;
  int64_t replay_windows = 0;
  int64_t replay_exact_windows = 0;
  double replay_tokenize_s = 0, replay_encode_last_s = 0, replay_mask_s = 0;
  double replay_encode_s = 0, replay_tokens = 0;
  int64_t replay_prompts = 0, replay_mask_patterns = 0;
  int64_t train_windows = 0;
};

// ---------------------------------------------------------------------------
// Serving: alternating windows of B=1 requests and B=32 batches.
// ---------------------------------------------------------------------------

/// Serves `test` from `model` for `seconds` (at least one window pair),
/// filling the serving fields of `m`. Checks the B=32 forecasts against
/// the B=1 ones and returns the error of the first B=1 pass.
ErrorAccumulator Serve(const core::TimeKd& model,
                       const data::WindowDataset& test, double seconds,
                       SpanRecorder& rec, CheckLog& checks, Measurements* m) {
  const int64_t n = test.NumSamples();
  const int64_t per_window =
      model.config().horizon * model.config().num_variables;
  std::vector<float> first_pass(static_cast<size_t>(n * per_window));
  ErrorAccumulator own;
  const int64_t first_pass_batches = (n + kBatch - 1) / kBatch;
  int64_t mismatched = 0;
  const HostSpeedTimerPause sample_between_calls;
  int64_t request = 0;
  int64_t batch_no = 0;
  const int64_t start = NowNs();
  do {
    {
      ScopedSpan window(rec, "serve.b1_window");
      const Snapshot before;
      for (int64_t k = 0; k < kWindowRequests; ++k, ++request) {
        const int64_t i = request % n;
        const int64_t t0 = NowNs();
        data::ForecastBatch batch = [&] {
          ScopedSpan s(rec, "data.get_batch");
          return test.GetBatch({i});
        }();
        const int64_t t1 = NowNs();
        int64_t base = 0;
        if (rec.enabled()) {
          base = tensor::CurrentMemoryBytes();
          tensor::ResetPeakMemoryBytes();
        }
        tensor::Tensor pred = [&] {
          ScopedSpan s(rec, "core.timekd.predict");
          return model.Predict(batch.x);
        }();
        const int64_t t2 = NowNs();
        if (rec.enabled()) {
          const double peak = static_cast<double>(tensor::PeakMemoryBytes());
          m->b1_peak_bytes.push_back(peak - static_cast<double>(base));
          m->serve_peak_bytes = std::max(m->serve_peak_bytes, peak);
        }
        m->b1.push_back({t0, t2});
        SampleHostSpeedIfDue();
        if (rec.enabled()) {  // per-layer only; untraced runs keep rss lean
          m->b1_get_batch_s.push_back(Seconds(t1 - t0));
          m->b1_predict_s.push_back(Seconds(t2 - t1));
        }
        if (request < n) {
          std::copy(pred.data(), pred.data() + per_window,
                    first_pass.begin() + i * per_window);
          own.Add(pred.data(), batch.y.data(), pred.numel());
        }
      }
      m->b1_counters.Add(before, Snapshot());
    }
    ScopedSpan window(rec, "serve.b32_window");
    for (int64_t k = 0; k < kWindowBatches; ++k, ++batch_no) {
      std::vector<int64_t> indices(static_cast<size_t>(kBatch));
      for (int64_t j = 0; j < kBatch; ++j) {
        indices[static_cast<size_t>(j)] = (batch_no * kBatch + j) % n;
      }
      const int64_t t0 = NowNs();
      data::ForecastBatch batch = [&] {
        ScopedSpan s(rec, "data.get_batch_b32");
        return test.GetBatch(indices);
      }();
      const int64_t t1 = NowNs();
      if (rec.enabled()) tensor::ResetPeakMemoryBytes();
      tensor::Tensor pred = [&] {
        ScopedSpan s(rec, "core.timekd.predict_b32");
        return model.Predict(batch.x);
      }();
      const int64_t t2 = NowNs();
      if (rec.enabled()) {
        m->serve_peak_bytes =
            std::max(m->serve_peak_bytes,
                     static_cast<double>(tensor::PeakMemoryBytes()));
      }
      m->b32.push_back({t0, t2});
      SampleHostSpeedIfDue();
      if (rec.enabled()) m->b32_predict_s.push_back(Seconds(t2 - t1));
      if (batch_no >= first_pass_batches) continue;
      for (int64_t j = 0; j < kBatch; ++j) {
        const float* want =
            first_pass.data() + indices[static_cast<size_t>(j)] * per_window;
        if (FirstMismatch(pred.data() + j * per_window, want, per_window) >=
            0) {
          ++mismatched;
        }
      }
    }
  } while (Seconds(NowNs() - start) < seconds);
  checks.Expect(mismatched == 0,
                "B=32 forecasts match B=1 within the SIMD tolerance (" +
                    std::to_string(mismatched) + " windows differ)");
  return own;
}

/// Own first-pass MSE/MAE must equal TimeKd::Evaluate's.
void CheckOwnError(const ErrorAccumulator& own,
                   const core::TimeKd::Metrics& eval, CheckLog& checks) {
  checks.Expect(
      SameError(own.mse(), eval.mse) && SameError(own.mae(), eval.mae),
      "benchmark MSE/MAE equal TimeKd::Evaluate");
}

void RecordTestMetrics(const core::TimeKd::Metrics& eval, CheckLog& checks,
                       Measurements* m) {
  m->test = eval;
  checks.Expect(std::isfinite(eval.mse) && std::isfinite(eval.mae) &&
                    eval.mse > 0.0,
                "test MSE/MAE finite and positive");
}

/// Adds the observer-derived phases of the last Fit as child spans of
/// `fit_span`, so the trace shows them and Fit's self time excludes them.
void AddPhaseSpans(const PhaseObserver::Phases& p, int32_t fit_span,
                   SpanRecorder& rec) {
  if (!p.valid || fit_span < 0) return;
  rec.Add("core.teacher.phase", p.teacher_start, p.teacher_end, fit_span);
  rec.Add("core.teacher.targets", p.teacher_end, p.student_start, fit_span);
  rec.Add("core.student.phase", p.student_start, p.student_end, fit_span);
}

/// One timed Fit call (+ its phase spans); returns its interval.
Interval TimedFit(core::TimeKd& model, const Inputs& in,
                  PhaseObserver& observer, SpanRecorder& rec,
                  Measurements* m) {
  core::TrainConfig tc = in.train_config;
  tc.observer = &observer;
  observer.Clear();
  const int32_t span = rec.Begin("core.timekd.fit");
  const int64_t t0 = NowNs();
  model.Fit(in.train, &in.val, tc);
  const int64_t t1 = NowNs();
  rec.End(span);
  m->phases.push_back(observer.Derive());
  AddPhaseSpans(m->phases.back(), span, rec);
  return {t0, t1};
}

template <typename SetupFn>
void RepeatSetup(SpanRecorder& rec, Measurements* m, SetupFn&& setup) {
  const int64_t start = NowNs();
  for (int k = 0; k < kMaxSetups; ++k) {
    if (k >= kMinSetups && Seconds(NowNs() - start) >= kMinSetupSeconds) break;
    ScopedSpan span(rec, "setup");
    const int64_t t0 = NowNs();
    setup();
    m->setups.push_back({t0, NowNs()});
  }
}

std::unique_ptr<Inputs> TracedInputs(uint64_t seed, SpanRecorder& rec) {
  ScopedSpan span(rec, "data.make_inputs");
  return MakeInputs(seed);
}

std::unique_ptr<core::TimeKd> TracedModel(const core::TimeKdConfig& config,
                                          SpanRecorder& rec) {
  ScopedSpan span(rec, "core.timekd.construct");
  return std::make_unique<core::TimeKd>(config);
}

core::TimeKd::Metrics TracedEvaluate(const core::TimeKd& model,
                                     const data::WindowDataset& test,
                                     SpanRecorder& rec, Measurements* m) {
  ScopedSpan span(rec, "core.timekd.evaluate");
  ++m->evaluations;
  return model.Evaluate(test);
}

/// Serving probe of a trained student (fit, distill).
void ProbeServing(const core::TimeKd& model, const Inputs& in, double seconds,
                  SpanRecorder& rec, CheckLog& checks, Measurements* m) {
  ScopedSpan span(rec, "serve.probe");
  const ErrorAccumulator own =
      Serve(model, in.test, seconds, rec, checks, m);
  CheckOwnError(own, m->test, checks);
}

// ---------------------------------------------------------------------------
// CLM replay: EncodeSample's public sub-calls on a fixed window subset.
// ---------------------------------------------------------------------------

void ReplayEncodeSample(core::TimeKd& model, const Inputs& in,
                        SpanRecorder& rec, Measurements* m) {
  ScopedSpan span(rec, "replay");
  // EncodeSample runs its sub-calls under NoGradGuard (the CLM is frozen).
  const tensor::NoGradGuard no_grad;
  const core::TimeKdConfig& cfg = in.config;
  const timekd::llm::LanguageModel* lm = model.clm().language_model();
  if (lm == nullptr) return;
  const text::PromptBuilder builder(cfg.prompt);
  const bool calibrated = cfg.use_calibrated_attention;
  const data::WindowDataset& ds = in.train;
  const int64_t n_vars = ds.series().num_variables();
  std::set<std::vector<text::Modality>> patterns;
  m->train_windows = ds.NumSamples();
  for (int64_t i = 0; i < ds.NumSamples(); i += kReplayStride) {
    int64_t t0 = NowNs();
    core::PromptEmbeddings ref = [&] {
      ScopedSpan s(rec, "replay.core.clm.encode_sample");
      return model.clm().EncodeSample(ds, i);
    }();
    m->replay_encode_s += Seconds(NowNs() - t0);

    std::vector<text::TokenizedPrompt> hd;
    std::vector<text::TokenizedPrompt> gt;
    t0 = NowNs();
    {
      ScopedSpan s(rec, "text.tokenize");
      for (int64_t v = 0; v < n_vars; ++v) {
        text::PromptSpec spec;
        spec.t_start = ds.HistoryStart(i);
        spec.t_end = spec.t_start + ds.input_len() - 1;
        spec.freq_minutes = cfg.freq_minutes;
        spec.horizon = ds.horizon();
        spec.history = ds.HistoryValues(i, v);
        hd.push_back(builder.TokenizeHistoricalPrompt(spec));
        if (cfg.use_privileged_info) {
          spec.future = ds.FutureValues(i, v);
          gt.push_back(builder.TokenizeGroundTruthPrompt(spec));
        }
      }
    }
    m->replay_tokenize_s += Seconds(NowNs() - t0);

    t0 = NowNs();
    tensor::Tensor hd_emb;
    tensor::Tensor gt_emb;
    {
      ScopedSpan s(rec, "llm.encode_last_tokens");
      hd_emb = lm->EncodeLastTokens(hd, calibrated);
      gt_emb = cfg.use_privileged_info ? lm->EncodeLastTokens(gt, calibrated)
                                       : hd_emb;
    }
    m->replay_encode_last_s += Seconds(NowNs() - t0);

    // Mask-cache probe: rebuild the calibrated mask of every prompt.
    t0 = NowNs();
    {
      ScopedSpan s(rec, "llm.mask");
      for (const auto* prompts : {&hd, &gt}) {
        for (const text::TokenizedPrompt& p : *prompts) {
          const tensor::Tensor mask = timekd::llm::BuildCalibratedMask(
              p.modality, lm->causal(), lm->config().calibration_delta);
          (void)mask;
        }
      }
    }
    m->replay_mask_s += Seconds(NowNs() - t0);

    // Outside the timed spans: bookkeeping and the bit-for-bit check.
    for (const auto* prompts : {&hd, &gt}) {
      for (const text::TokenizedPrompt& p : *prompts) {
        ++m->replay_prompts;
        m->replay_tokens += static_cast<double>(p.ids.size());
        patterns.insert(p.modality);
      }
    }
    ++m->replay_windows;
    const bool exact =
        hd_emb.numel() == ref.hd.numel() && gt_emb.numel() == ref.gt.numel() &&
        BitIdentical(hd_emb.data(), ref.hd.data(), hd_emb.numel()) &&
        BitIdentical(gt_emb.data(), ref.gt.data(), gt_emb.numel());
    if (exact) ++m->replay_exact_windows;
  }
  m->replay_mask_patterns = static_cast<int64_t>(patterns.size());
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

/// Runs `iteration(k)` until iterations have taken `seconds` (at least
/// once), charging their counters and tensor high-water mark to `m`. After
/// each iteration `probe(s)` serves for kProbeShare of its wall, until the
/// probes have served `seconds` in all, and then for one window pair; the
/// probe is charged to the serving metrics, not to the loop. A run with an
/// extra iteration thus serves no longer, and records no more requests
/// (16 bytes each, part of rss_peak_mb).
template <typename IterationFn, typename ProbeFn>
void TimedLoop(double seconds, Measurements* m, IterationFn&& iteration,
               ProbeFn&& probe) {
  double elapsed = 0.0;
  double probed = 0.0;
  int64_t k = 0;
  do {
    tensor::ResetPeakMemoryBytes();
    const Snapshot before;
    iteration(k++);
    const Snapshot after;
    m->loop.Add(before, after);
    m->tensor_peak_bytes = std::max(
        m->tensor_peak_bytes, static_cast<double>(tensor::PeakMemoryBytes()));
    const double wall = Seconds(after.wall_ns - before.wall_ns);
    elapsed += wall;
    const double probe_s = std::min(kProbeShare * wall, seconds - probed);
    probe(probe_s);
    probed += probe_s;
  } while (elapsed < seconds);
  m->iterations = k;
}

/// Records the first iteration's test metrics; later ones must match.
void CheckRepeat(const core::TimeKd::Metrics& eval, int64_t k,
                 CheckLog& checks, Measurements* m) {
  if (k == 0) {
    RecordTestMetrics(eval, checks, m);
  } else {
    checks.Expect(eval.mse == m->test.mse && eval.mae == m->test.mae,
                  "repeated fits give identical test metrics");
  }
}

/// fit: cold-cache TimeKd::Fit + Evaluate(test), the offline pipeline.
void RunFit(const Options& opt, SpanRecorder& rec, CheckLog& checks,
            Measurements* m) {
  std::unique_ptr<Inputs> in;
  std::unique_ptr<core::TimeKd> model;
  RepeatSetup(rec, m, [&] {
    in = TracedInputs(opt.seed, rec);
    model = TracedModel(in->config, rec);
  });

  PhaseObserver observer;
  auto probe = [&](double seconds) {
    ProbeServing(*model, *in, seconds, rec, checks, m);
  };
  TimedLoop(opt.seconds, m, [&](int64_t k) {
    if (k > 0) {
      model.reset();  // one model at a time, so rss_peak_mb does not count
                      // a second one in runs with more iterations
      model = std::make_unique<core::TimeKd>(in->config);
    }
    ScopedSpan span(rec, "pipeline");
    if (rec.enabled()) {
      // Traced: drive TimeKd::WarmCache's loop here so each EncodeSample
      // and cache Put is its own span; Fit then finds every sample cached.
      const int64_t t0 = NowNs();
      {
        ScopedSpan warm(rec, "core.clm.warm");
        for (int64_t i = 0; i < in->train.NumSamples(); ++i) {
          int64_t s0 = NowNs();
          core::PromptEmbeddings e = [&] {
            ScopedSpan s(rec, "core.clm.encode_sample");
            return model->clm().EncodeSample(in->train, i);
          }();
          m->encode_s.push_back(Seconds(NowNs() - s0));
          s0 = NowNs();
          {
            ScopedSpan s(rec, "core.clm.cache_put");
            model->cache().Put(i, e);
          }
          m->cache_put_s.push_back(Seconds(NowNs() - s0));
        }
      }
      TimedFit(*model, *in, observer, rec, m);
      m->fits.push_back({t0, NowNs()});
    } else {
      m->fits.push_back(TimedFit(*model, *in, observer, rec, m));
    }
    CheckRepeat(TracedEvaluate(*model, in->test, rec, m), k, checks, m);
  }, probe);

  // fit and distill run one program path once the cache is built: a fit
  // on a copy of this model's cache must reproduce the cold fit exactly.
  {
    ScopedSpan span(rec, "check.warm_refit");
    core::TimeKd warm(in->config);
    warm.cache() = model->cache();
    warm.Fit(in->train, &in->val, in->train_config);
    const core::TimeKd::Metrics eval = warm.Evaluate(in->test);
    checks.Expect(eval.mse == m->test.mse && eval.mae == m->test.mae,
                  "warm-cache fit (distill's path) reproduces the cold fit");
  }
  if (rec.enabled()) ReplayEncodeSample(*model, *in, rec, m);
}

/// distill: Fit + Evaluate(test) on an embedding cache warmed in set-up.
void RunDistill(const Options& opt, SpanRecorder& rec, CheckLog& checks,
                Measurements* m) {
  std::unique_ptr<Inputs> in;
  std::unique_ptr<core::TimeKd> model;
  RepeatSetup(rec, m, [&] {
    in = TracedInputs(opt.seed, rec);
    model = TracedModel(in->config, rec);
    ScopedSpan span(rec, "core.timekd.warm_cache");
    model->WarmCache(in->train);
  });
  const core::EmbeddingCache warm_cache = model->cache();

  PhaseObserver observer;
  auto probe = [&](double seconds) {
    ProbeServing(*model, *in, seconds, rec, checks, m);
  };
  TimedLoop(opt.seconds, m, [&](int64_t k) {
    if (k > 0) {
      model.reset();  // one model at a time, as in fit
      model = std::make_unique<core::TimeKd>(in->config);
      model->cache() = warm_cache;
    }
    ScopedSpan span(rec, "pipeline");
    m->fits.push_back(TimedFit(*model, *in, observer, rec, m));
    CheckRepeat(TracedEvaluate(*model, in->test, rec, m), k, checks, m);
  }, probe);
  checks.Expect(m->loop.Get("clm/cache_misses") == 0,
                "no embedding-cache miss in the timed part");
  checks.Expect(m->loop.Get("clm/encode_calls") == 0,
                "no Clm::EncodeSample call in the timed part");
}

/// serve: student-only inference from a SaveStudent checkpoint.
void RunServe(const Options& opt, SpanRecorder& rec, CheckLog& checks,
              Measurements* m) {
  std::unique_ptr<Inputs> in;
  std::unique_ptr<core::TimeKd> served;
  core::TimeKd::Metrics trained_eval;
  const std::string path = opt.scratch_dir + "/serve-student-" +
                           std::to_string(opt.seed) + ".bin";
  RepeatSetup(rec, m, [&] {
    in = TracedInputs(opt.seed, rec);
    // The student's shape does not depend on the teacher's value encoder,
    // so the w/o_CLM teacher keeps set-up short.
    core::TimeKdConfig train_config = in->config;
    train_config.use_clm = false;
    std::unique_ptr<core::TimeKd> trained = TracedModel(train_config, rec);
    PhaseObserver unused_observer;
    Measurements unused_phases;
    m->fits.push_back(
        TimedFit(*trained, *in, unused_observer, rec, &unused_phases));
    trained_eval = trained->Evaluate(in->test);
    {
      ScopedSpan span(rec, "core.timekd.save_student");
      checks.Expect(trained->SaveStudent(path).ok(), "SaveStudent succeeds");
    }
    served = TracedModel(in->config, rec);
    {
      ScopedSpan span(rec, "core.timekd.load_student");
      checks.Expect(served->LoadStudent(path).ok(), "LoadStudent succeeds");
    }
    std::remove(path.c_str());
  });

  const Snapshot before;
  const ErrorAccumulator own =
      Serve(*served, in->test, opt.seconds, rec, checks, m);
  const Snapshot after;
  m->tensor_peak_bytes = m->serve_peak_bytes;
  // The timed loop of serve is its B=1 windows: one iteration per request.
  m->loop = m->b1_counters;
  m->iterations = static_cast<int64_t>(m->b1.size());
  checks.Expect(after.Counter("optimizer/steps") ==
                    before.Counter("optimizer/steps"),
                "no optimizer step in the timed part");
  checks.Expect(after.Counter("clm/encode_calls") ==
                    before.Counter("clm/encode_calls"),
                "no Clm::EncodeSample call in the timed part");

  RecordTestMetrics(served->Evaluate(in->test), checks, m);
  CheckOwnError(own, m->test, checks);
  checks.Expect(m->test.mse == trained_eval.mse &&
                    m->test.mae == trained_eval.mae,
                "loaded student reproduces the trained student's metrics");
}

// ---------------------------------------------------------------------------
// Metric tables.
// ---------------------------------------------------------------------------

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double Micros(double s) { return s * 1e6; }

/// Seconds of each interval, rescaled to nominal host speed by `speed`,
/// or as measured without it.
std::vector<double> Durations(const std::vector<Interval>& v,
                              const HostSpeed* speed) {
  std::vector<double> out;
  for (const Interval& i : v) {
    out.push_back(speed ? speed->RescaledSeconds(i.start_ns, i.end_ns)
                        : i.seconds());
  }
  return out;
}

/// The end-to-end metrics, every time rescaled by `speed` (nullptr: as
/// measured, for the notes). Each B=1 request and B=32 batch is rescaled
/// by the samples around it, before the percentiles are taken. p99 is the
/// median over the B=1 windows of each window's p99 (10 requests beyond
/// it per window of 1000): over all requests it moved with the few
/// windows in which the host stalled, by 0.16 across 8 runs against 0.10.
std::vector<Metric> EndToEnd(const Measurements& m, const HostSpeed* speed) {
  const std::vector<double> b1 = Durations(m.b1, speed);
  return {
      {"setup_s", Median(Durations(m.setups, speed)), "s"},
      {"fit_s", Median(Durations(m.fits, speed)), "s"},
      {"rss_peak_mb", PeakRssMb(), "MB"},
      {"predict_b1_p50_us", Micros(Percentile(b1, 5000)), "us"},
      {"predict_b1_p99_us",
       Micros(Median(PerWindow(b1, kWindowRequests, 9900))), "us"},
      {"predict_b32_samples_per_s",
       static_cast<double>(kBatch) / Median(Durations(m.b32, speed)), "1/s"},
  };
}

std::vector<Metric> Accuracy(const Measurements& m) {
  return {{"test_mse", m.test.mse, "mse"}, {"test_mae", m.test.mae, "mae"}};
}

std::vector<Metric> PerLayer(const Measurements& m, const HostSpeed& speed,
                             const Interval& run) {
  const double iterations =
      static_cast<double>(std::max<int64_t>(1, m.iterations));
  auto per_iteration = [&](const char* counter) {
    return m.loop.Get(counter) / iterations;
  };
  const double requests =
      static_cast<double>(std::max<size_t>(1, m.b1.size()));
  auto per_predict = [&](const char* counter) {
    return m.b1_counters.Get(counter) / requests;
  };
  auto phase_median = [&](auto&& field) {
    std::vector<double> v;
    for (const PhaseObserver::Phases& p : m.phases) {
      if (p.valid) v.push_back(field(p));
    }
    return Median(v);
  };
  auto step_median_ms = [&](bool teacher) {
    std::vector<double> v;
    for (const PhaseObserver::Phases& p : m.phases) {
      const auto& steps = teacher ? p.teacher_steps_s : p.student_steps_s;
      v.insert(v.end(), steps.begin(), steps.end());
    }
    return Median(v) * 1e3;
  };
  double encode_total = 0.0;
  for (double s : m.encode_s) encode_total += s;
  double put_total = 0.0;
  for (double s : m.cache_put_s) put_total += s;

  std::vector<Metric> out = {
      {"core.student.test_mse", m.test.mse, "mse"},
      {"core.student.test_mae", m.test.mae, "mae"},
      {"core.clm.encode_s", encode_total / iterations, "s"},
      {"core.clm.encode_p50_ms", Median(m.encode_s) * 1e3, "ms"},
      {"core.clm.cache_put_s", put_total / iterations, "s"},
      {"core.clm.encode_calls", per_iteration("clm/encode_calls"), "count"},
      {"core.clm.replay_exact_windows",
       static_cast<double>(m.replay_exact_windows), "count"},
  };
  // text.*/llm.* are published only when the replay reproduced
  // EncodeSample bit for bit; otherwise they would describe a path the
  // program no longer takes.
  if (m.replay_windows == m.replay_exact_windows) {
    const double scale =
        m.replay_windows > 0 ? static_cast<double>(m.train_windows) /
                                   static_cast<double>(m.replay_windows)
                             : 0.0;
    const std::vector<Metric> clm = {
        {"text.tokenize_s", m.replay_tokenize_s * scale, "s"},
        {"llm.encode_last_tokens_s", m.replay_encode_last_s * scale, "s"},
        {"llm.mask_s", m.replay_mask_s * scale, "s"},
        {"core.clm.unattributed_frac",
         m.replay_encode_s > 0.0
             ? 1.0 - (m.replay_tokenize_s + m.replay_encode_last_s) /
                         m.replay_encode_s
             : 0.0,
         "ratio"},
        {"text.tokens", per_iteration("clm/encode_tokens"), "count"},
        {"llm.tokens_per_s",
         m.replay_encode_last_s > 0.0
             ? m.replay_tokens / m.replay_encode_last_s
             : 0.0,
         "1/s"},
        {"llm.mask_distinct_ratio",
         m.replay_prompts > 0 ? static_cast<double>(m.replay_mask_patterns) /
                                    static_cast<double>(m.replay_prompts)
                              : 0.0,
         "ratio"},
    };
    out.insert(out.end(), clm.begin(), clm.end());
  }
  const std::vector<Metric> rest = {
      {"tensor.matmul_gflop", per_iteration("tensor/matmul_flops") * 1e-9,
       "GFLOP"},
      {"tensor.matmul_calls", per_iteration("tensor/matmul_calls"), "count"},
      {"tensor.elementwise_calls", per_iteration("tensor/elementwise_calls"),
       "count"},
      {"tensor.transpose_calls", per_iteration("tensor/transpose_calls"),
       "count"},
      {"nn.attention_calls", per_iteration("nn/attention_calls"), "count"},
      {"common.thread_pool.cpu_per_wall",
       m.loop.wall_s > 0.0 ? m.loop.cpu_s / m.loop.wall_s : 0.0, "ratio"},
      {"core.teacher.phase_s",
       phase_median([](const auto& p) {
         return Seconds(p.teacher_end - p.teacher_start);
       }),
       "s"},
      {"core.teacher.step_p50_ms", step_median_ms(true), "ms"},
      {"core.teacher.targets_s",
       phase_median([](const auto& p) {
         return Seconds(p.student_start - p.teacher_end);
       }),
       "s"},
      {"core.student.train_phase_s",
       phase_median([](const auto& p) {
         return Seconds(p.student_end - p.student_start);
       }),
       "s"},
      {"core.student.step_p50_ms", step_median_ms(false), "ms"},
      {"core.eval.val_s", phase_median([](const auto& p) { return p.val_s; }),
       "s"},
      {"nn.optimizer.steps", per_iteration("optimizer/steps"), "count"},
      {"core.clm.cache_reads", per_iteration("clm/cache_reads"), "count"},
      {"core.clm.cache_misses", per_iteration("clm/cache_misses"), "count"},
      {"tensor.matmul_bwd_calls", per_iteration("tensor/matmul_bwd_calls"),
       "count"},
      {"tensor.peak_mb", m.tensor_peak_bytes / (1024.0 * 1024.0), "MB"},
      {"data.get_batch_us", Micros(Median(m.b1_get_batch_s)), "us"},
      {"core.student.predict_b1_us", Micros(Median(m.b1_predict_s)), "us"},
      {"core.student.predict_b32_us", Micros(Median(m.b32_predict_s)), "us"},
      {"tensor.peak_kb_per_predict", Median(m.b1_peak_bytes) / 1024.0, "KB"},
      {"tensor.matmul_calls_per_predict", per_predict("tensor/matmul_calls"),
       "count"},
      {"tensor.elementwise_calls_per_predict",
       per_predict("tensor/elementwise_calls"), "count"},
      {"tensor.transpose_calls_per_predict",
       per_predict("tensor/transpose_calls"), "count"},
      {"host.speed_factor", speed.Factor(run.start_ns, run.end_ns), "ratio"},
  };
  out.insert(out.end(), rest.begin(), rest.end());
  return out;
}

std::string Format(const char* fmt, double a, double b = 0.0,
                   double c = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c);
  return buf;
}

/// Report lines: sample counts, host speed, the times as measured, what the
/// traced run confirms, self times.
void AddNotes(const Options& opt, const Measurements& m,
              const SpanRecorder& rec, const HostSpeed& speed,
              const Interval& run, Result* r) {
  r->notes.push_back(Format(
      "samples: %.0f set-ups, %.0f timed iterations, %.0f fits",
      static_cast<double>(m.setups.size()), static_cast<double>(m.iterations),
      static_cast<double>(m.fits.size())));
  r->notes.push_back(Format(
      "samples: %.0f B=1 requests in windows of 1000 (p%g is the highest "
      "percentile with >=10 samples beyond it per window), %.0f B=32 batches",
      static_cast<double>(m.b1.size()),
      static_cast<double>(HighestReportablePercentileBp(kWindowRequests)) /
          100.0,
      static_cast<double>(m.b32.size())));
  r->notes.push_back(Format(
      "host speed: %.0f reference samples, factor %.4f over the run "
      "(kernel median %.0f ns, ",
      static_cast<double>(speed.size()), speed.Factor(run.start_ns, run.end_ns),
      speed.median_kernel_ns()) +
      Format("nominal %.0f ns)", HostSpeed::kNominalKernelNs));
  // Within-run spread of the rescaled B=1 windows: IQR / median of their
  // p50s, the same statistic the run-to-run gate applies across seeds.
  const Quartiles q = ComputeQuartiles(
      PerWindow(Durations(m.b1, &speed), kWindowRequests, 5000));
  r->notes.push_back(Format("B=1 window p50 quartiles: %.2f / %.2f / %.2f us",
                            Micros(q.q1), Micros(q.q2), Micros(q.q3)) +
                     Format(", spread %.3f", q.Spread()));
  std::string measured = "as measured, not rescaled:";
  for (const Metric& x : EndToEnd(m, nullptr)) {
    if (x.unit == "MB") continue;
    measured += " " + x.name + Format(" %.6g", x.value);
  }
  r->notes.push_back(measured);
  if (!rec.enabled()) return;
  if (m.replay_windows != m.replay_exact_windows) {
    r->notes.push_back(Format(
        "INVALID text.*/llm.*: the replay reproduced %.0f of %.0f windows "
        "bit for bit, so those metrics are not published",
        static_cast<double>(m.replay_exact_windows),
        static_cast<double>(m.replay_windows)));
  }
  const double iterations =
      static_cast<double>(std::max<int64_t>(1, m.iterations));
  if (opt.workload == "fit") {
    double encode = 0.0;
    for (double s : m.encode_s) encode += s;
    const double fit = Mean(Durations(m.fits, nullptr));
    r->notes.push_back(Format(
        "confirm fit: core.clm.encode_s %.3f s is %.1f%% of the traced fit "
        "wall %.3f s (warm + Fit)",
        encode / iterations,
        fit > 0.0 ? 100.0 * encode / iterations / fit : 0.0, fit));
  }
  r->notes.push_back(
      "confirm " + opt.workload +
      Format(": per timed iteration, %.0f Clm::EncodeSample calls and %.0f "
             "optimizer steps",
             m.loop.Get("clm/encode_calls") / iterations,
             m.loop.Get("optimizer/steps") / iterations));
  // Self time per span name: duration minus what child spans cover.
  struct Row {
    int64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  std::map<std::string, Row> rows;
  const std::vector<int64_t> self = rec.SelfNs();
  for (size_t i = 0; i < rec.spans().size(); ++i) {
    const SpanRecorder::Span& s = rec.spans()[i];
    Row& row = rows[s.name];
    ++row.count;
    row.total_ns += s.end_ns - s.start_ns;
    row.self_ns += self[i];
  }
  for (const auto& [name, row] : rows) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "span %-34s count %8lld  total %10.4f s  self %10.4f s",
                  name.c_str(), static_cast<long long>(row.count),
                  Seconds(row.total_ns), Seconds(row.self_ns));
    r->notes.push_back(buf);
  }
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"fit", "distill", "serve"};
  return names;
}

Result RunWorkload(const Options& opt) {
  timekd::ThreadPool::Get().Resize(kPoolThreads);
  SpanRecorder rec(opt.trace);
  CheckLog checks;
  checks.Expect(StartHostSpeedSampler(), "host-speed sampler started");
  Measurements m;
  Interval run;
  {
    ScopedSpan span(rec, "workload");
    run.start_ns = NowNs();
    if (opt.workload == "fit") {
      RunFit(opt, rec, checks, &m);
    } else if (opt.workload == "distill") {
      RunDistill(opt, rec, checks, &m);
    } else {
      RunServe(opt, rec, checks, &m);
    }
    run.end_ns = NowNs();
  }
  bool overflowed = false;
  const HostSpeed speed(StopHostSpeedSampler(&overflowed));
  checks.Expect(!overflowed && speed.size() > 0,
                "host-speed samples cover the whole run");
  Result r;
  r.pool_threads = timekd::ThreadPool::Get().num_threads();
  r.end_to_end = EndToEnd(m, &speed);
  r.accuracy = Accuracy(m);
  if (opt.trace) r.per_layer = PerLayer(m, speed, run);
  AddNotes(opt, m, rec, speed, run, &r);
  if (opt.trace && !opt.trace_out.empty()) {
    checks.Expect(rec.WriteChromeTrace(opt.trace_out),
                  "Chrome trace written to " + opt.trace_out);
  }
  for (const std::string& f : checks.failures()) {
    r.notes.push_back("CHECK FAILED: " + f);
  }
  r.notes.push_back(Format("checks: %.0f run, %.0f failed",
                           static_cast<double>(checks.checks()),
                           static_cast<double>(checks.failed())));
  // Operations: every timed public call (Fit, Evaluate, B=1 and B=32
  // Predict) plus every output check; each failed check is one failure.
  r.attempted = static_cast<int64_t>(m.fits.size() + m.b1.size() +
                                     m.b32.size()) +
                m.evaluations + checks.checks();
  r.failed = checks.failed();
  return r;
}

}  // namespace perfbench
