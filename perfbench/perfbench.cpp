// perfbench: the repository benchmark. One process runs one workload on one
// seed and prints its metrics as a JSON object on the last line of stdout.
//
//   perfbench --workload allreduce_8k --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures what a user of the collective API sees: set-up time,
// throughput, per-call latency, accuracy against the exact sum and peak
// memory. --trace 1 pushes the same seeded inputs through every layer's
// public entry point (core kernels, FpisaSwitch, AggregationSession,
// AggregationService, Communicator), times each call with a span recorded
// here, and reports per-layer figures plus the cost of tracing itself. The
// spans are written out as Chrome trace JSON (--trace-out).
//
// Every output the program produces is compared bit for bit with a
// reference computed at set-up by a lossless single-switch
// AggregationSession with the workload's switch config: a faster path must
// not change a single bit. Per-value figures are per aggregated OUTPUT
// value (one sum of kWorkers inputs).
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "cluster/aggregation_service.h"
#include "collective/communicator.h"
#include "core/batch_accumulator.h"
#include "core/packed.h"
#include "pisa/fpisa_program.h"
#include "qos/qos.h"
#include "switchml/aggregator.h"
#include "switchml/session.h"
#include "telemetry/trace.h"
#include "util/build_info.h"
#include "util/rng.h"
#include "util/stats.h"

namespace {

using namespace fpisa;
using Clock = std::chrono::steady_clock;
using SpanId = telemetry::Trace::SpanId;

// Fabric geometry shared by every workload and layer: 4 workers, 32 FP
// values per packet, 64 aggregation slots per switch (all claimed by one
// job), 4 shards.
constexpr int kWorkers = 4;
constexpr int kLanes = 32;
constexpr std::size_t kSlots = 64;
constexpr int kShards = 4;
// The untraced timed loop runs in kSegments slices on one long-lived
// communicator, and values_per_s is the median slice's, so a few seconds of
// noise from other tenants of the machine move it little. After each slice
// kProbesPerSegment throwaway communicators are set up and timed, so the
// set-up samples spread over the whole run too.
constexpr int kSegments = 10;
constexpr int kProbesPerSegment = 4;
// Untimed closed-loop calls before any timing: a fresh service's threads
// run faster for about their first second than in steady state, and a
// long-lived communicator is what users run.
constexpr double kWarmupSeconds = 2.0;
// Minimum rounds of the layer waterfall, however long one call takes.
constexpr int kMinLayerReps = 3;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return util::sorted_percentile(xs, 0.5);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// --- workloads --------------------------------------------------------------

// One distinct input: kWorkers vectors plus what its outputs are checked
// against. `views` point into `workers`: an Input may be moved (the vector
// buffers stay put) but never copied.
struct Input {
  std::vector<std::vector<float>> workers;
  std::vector<std::span<const float>> views;
  std::vector<float> reference;  ///< lossless single-switch session: bit-exact
  std::vector<float> exact;      ///< double-precision sum: accuracy reference
};

struct Tenant {
  std::string name;
  qos::Priority priority = qos::Priority::kTraining;
  std::size_t values = 0;  ///< per worker, = output values per call
  std::size_t loop_inputs = 1;      ///< cycled through by the timed loop
  std::size_t accuracy_inputs = 1;  ///< pooled into rel_l2_error
  std::vector<Input> inputs;
};

struct Workload {
  std::string name;
  /// tenants_lossy: QoS on, full FPISA variant, 1% loss each way, fault
  /// guard armed with corrupt and duplicate injection, one client per
  /// tenant. Otherwise one lossless FPISA-A client.
  bool lossy = false;
  /// tenants[0] is the largest: it runs the set-up warm-up and feeds the
  /// layer waterfall.
  std::vector<Tenant> tenants;
  /// Whose calls job_p50_ms / job_p90_ms are taken over.
  std::size_t latency_tenant = 0;
};

bool make_workload(const std::string& name, Workload& wl) {
  wl.name = name;
  if (name == "allreduce_8k") {
    wl.tenants = {{"job", qos::Priority::kTraining, 8192, 128, 512, {}}};
  } else if (name == "allreduce_1m") {
    wl.tenants = {{"job", qos::Priority::kTraining, 1u << 20, 2, 4, {}}};
  } else if (name == "tenants_lossy") {
    wl.lossy = true;
    wl.tenants = {{"train", qos::Priority::kTraining, 262144, 2, 2, {}},
                  {"query", qos::Priority::kQuery, 8192, 8, 8, {}},
                  {"telemetry", qos::Priority::kTelemetry, 1024, 8, 8, {}}};
    wl.latency_tenant = 1;
  } else {
    return false;
  }
  return true;
}

pisa::SwitchConfig switch_config(const Workload& wl) {
  pisa::SwitchConfig cfg;  // default: FPISA-A on today's hardware
  // The paper's query offload needs the full variant (RSAW + 2-operand
  // shift).
  cfg.ext.rsaw = wl.lossy;
  cfg.ext.two_operand_shift = wl.lossy;
  return cfg;
}

core::AccumulatorConfig core_config(const Workload& wl) {
  core::AccumulatorConfig cfg;
  cfg.variant = wl.lossy ? core::Variant::kFull : core::Variant::kApproximate;
  cfg.reg_bits = 32;
  cfg.overflow = core::OverflowPolicy::kWrap;  // switch registers wrap
  return cfg;
}

fault::FaultOptions fault_options(const Workload& wl, std::uint64_t seed) {
  fault::FaultOptions f;
  if (!wl.lossy) return f;
  f.enabled = true;
  f.seed = seed;
  f.corrupt_rate = 0.001;
  f.dup_rate = 0.001;
  return f;
}

double loss_rate(const Workload& wl) { return wl.lossy ? 0.01 : 0.0; }

collective::CommunicatorOptions comm_options(const Workload& wl,
                                             std::uint64_t seed, int shards) {
  collective::CommunicatorOptions o;
  o.backend = collective::Backend::kCluster;
  o.cluster.num_shards = shards;
  o.cluster.slots_per_shard = kSlots;
  o.cluster.slots_per_job = kSlots;
  o.cluster.lanes = kLanes;
  o.cluster.loss_rate = loss_rate(wl);
  o.cluster.loss_seed = seed;
  o.cluster.switch_config = switch_config(wl);
  o.fault = fault_options(wl, seed);
  if (wl.lossy) {
    o.qos.enabled = true;  // no rate limits: nothing is refused by design
    for (const Tenant& t : wl.tenants) {
      o.qos.tenants[t.name].priority = t.priority;
    }
  }
  return o;
}

switchml::SessionOptions session_options(const Workload& wl,
                                         std::uint64_t seed, bool lossless) {
  switchml::SessionOptions s;
  s.num_workers = kWorkers;
  s.slots = kSlots;
  s.lanes = kLanes;
  if (!lossless) {
    s.loss_rate = loss_rate(wl);
    s.loss_seed = seed;
    s.fault = fault_options(wl, seed);
  }
  return s;
}

switchml::AggregationSession reference_session(const Workload& wl,
                                               std::uint64_t seed) {
  return switchml::AggregationSession(switch_config(wl),
                                      session_options(wl, seed, true));
}

/// Input `k` of tenant `ti`: N(0, 0.1) FP32 drawn from the seed, with its
/// reference from `ref` (a lossless session) and its exact sum.
Input make_input(const Tenant& t, std::size_t ti, std::size_t k,
                 std::uint64_t seed, switchml::AggregationSession& ref) {
  Input in;
  util::Rng rng(seed * 1000003u + ti * 1009u + k);
  in.workers.assign(kWorkers, std::vector<float>(t.values));
  for (auto& w : in.workers) {
    for (float& v : w) v = static_cast<float>(rng.normal(0.0, 0.1));
  }
  in.views.assign(in.workers.begin(), in.workers.end());
  in.reference.resize(t.values);
  in.exact.resize(t.values);
  ref.reduce_into(in.views, in.reference);
  switchml::ExactAggregator().reduce(in.views, in.exact);
  return in;
}

void make_inputs(Workload& wl, std::uint64_t seed) {
  switchml::AggregationSession ref = reference_session(wl, seed);
  for (std::size_t ti = 0; ti < wl.tenants.size(); ++ti) {
    Tenant& t = wl.tenants[ti];
    for (std::size_t k = 0; k < t.loop_inputs; ++k) {
      t.inputs.push_back(make_input(t, ti, k, seed, ref));
    }
  }
}

// --- output check -----------------------------------------------------------

bool same_bits(std::span<const float> out, std::span<const float> ref) {
  return out.size() == ref.size() &&
         std::memcmp(out.data(), ref.data(), out.size_bytes()) == 0;
}

/// Outcome books: every call the benchmark makes lands in exactly one of
/// ok / thrown / rejected / wrong.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t thrown = 0;
  std::uint64_t rejected = 0;  ///< qos::AdmissionRejectedError
  std::uint64_t wrong = 0;     ///< output differs from the reference
  std::uint64_t failed() const { return thrown + rejected + wrong; }
  Tally& operator+=(const Tally& o) {
    attempted += o.attempted;
    thrown += o.thrown;
    rejected += o.rejected;
    wrong += o.wrong;
    return *this;
  }
  /// Books one checked output; true when it matched.
  bool check(std::span<const float> out, std::span<const float> ref) {
    ++attempted;
    if (same_bits(out, ref)) return true;
    ++wrong;
    return false;
  }
};

/// Runs one collective call, booking exceptions; true when it returned.
template <typename F>
bool guarded_call(Tally& tally, F&& call) {
  try {
    call();
    return true;
  } catch (const qos::AdmissionRejectedError&) {
    ++tally.attempted;
    ++tally.rejected;
  } catch (const std::exception& e) {
    ++tally.attempted;
    ++tally.thrown;
    std::fprintf(stderr, "perfbench: call failed: %s\n", e.what());
  }
  return false;
}

// --- closed-loop clients ----------------------------------------------------

struct ClientResult {
  Tally tally;
  std::vector<double> latency_ms;  ///< a failed call counts as +inf
  std::uint64_t values = 0;        ///< correct output values delivered
};

/// One closed-loop client: it issues its next call only once the previous
/// one returned. Multi-tenant workloads go through submit().wait(), the
/// asynchronous path a framework with several jobs uses.
ClientResult run_client(collective::Communicator& comm, const Tenant& t,
                        bool async, Clock::time_point deadline,
                        telemetry::Trace* trace) {
  ClientResult r;
  std::vector<float> out(t.values);
  const std::string span_name = "job." + t.name;
  for (std::size_t call = 0; Clock::now() < deadline; ++call) {
    const Input& in = t.inputs[call % t.inputs.size()];
    const collective::WorkerViews views(
        std::span<const std::span<const float>>(in.views));
    const Clock::time_point t0 = Clock::now();
    bool ok;
    {
      telemetry::ScopedSpan span(trace, span_name);
      ok = guarded_call(r.tally, [&] {
        if (async) {
          comm.submit(views, out, collective::ReduceOp::kSum, t.name).wait();
        } else {
          comm.allreduce(views, out, collective::ReduceOp::kSum, t.name);
        }
      });
    }
    const double ms = seconds_between(t0, Clock::now()) * 1e3;
    ok = ok && r.tally.check(out, in.reference);
    r.latency_ms.push_back(ok ? ms : std::numeric_limits<double>::infinity());
    if (ok) r.values += t.values;
  }
  return r;
}

struct LoopResult {
  Tally tally;
  double wall_s = 0;
  std::uint64_t values = 0;
  std::vector<std::vector<double>> latency_ms;  ///< per tenant

  LoopResult& operator+=(const LoopResult& o) {
    tally += o.tally;
    wall_s += o.wall_s;
    values += o.values;
    latency_ms.resize(o.latency_ms.size());
    for (std::size_t i = 0; i < o.latency_ms.size(); ++i) {
      latency_ms[i].insert(latency_ms[i].end(), o.latency_ms[i].begin(),
                           o.latency_ms[i].end());
    }
    return *this;
  }
};

/// All of the workload's clients for `seconds`: one on this thread for a
/// single-tenant workload, else one thread per tenant.
LoopResult run_loop(collective::Communicator& comm, const Workload& wl,
                    double seconds, telemetry::Trace* trace) {
  const Clock::time_point t0 = Clock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  std::vector<ClientResult> results(wl.tenants.size());
  if (wl.tenants.size() == 1) {
    results[0] = run_client(comm, wl.tenants[0], false, deadline, trace);
  } else {
    std::vector<std::thread> clients;
    for (std::size_t i = 0; i < wl.tenants.size(); ++i) {
      clients.emplace_back([&, i] {
        results[i] = run_client(comm, wl.tenants[i], true, deadline, trace);
      });
    }
    for (auto& c : clients) c.join();
  }
  LoopResult loop;
  loop.wall_s = seconds_between(t0, Clock::now());
  for (ClientResult& r : results) {
    loop.tally += r.tally;
    loop.values += r.values;
    loop.latency_ms.push_back(std::move(r.latency_ms));
  }
  return loop;
}

// --- set-up -----------------------------------------------------------------

/// Builds a communicator and runs its first warm-up allreduce, appending
/// the time from construction to the end of that call to `setup_times`
/// (input generation is excluded). When `selfcheck` is given, the warm-up
/// output also feeds the self-check: one flipped bit in a copy of it must
/// be reported wrong, so the output check can never pass vacuously.
std::unique_ptr<collective::Communicator> set_up(
    const Workload& wl, std::uint64_t seed, Tally& tally,
    std::vector<double>& setup_times, bool* selfcheck = nullptr) {
  const Tenant& t = wl.tenants[0];
  const Input& in = t.inputs[0];
  const collective::WorkerViews views(
      std::span<const std::span<const float>>(in.views));
  std::vector<float> out(t.values);
  const Clock::time_point t0 = Clock::now();
  auto comm = collective::make_communicator(comm_options(wl, seed, kShards));
  const bool ok = guarded_call(tally, [&] {
    comm->allreduce(views, out, collective::ReduceOp::kSum, t.name);
  });
  setup_times.push_back(seconds_between(t0, Clock::now()));
  if (ok && tally.check(out, in.reference) && selfcheck) {
    const std::size_t i = seed % out.size();
    out[i] = core::fp32_value(core::fp32_bits(out[i]) ^ 1u);
    Tally probe;
    *selfcheck = !probe.check(out, in.reference);
  }
  return comm;
}

/// ‖out − exact‖₂ / ‖exact‖₂ pooled over one call per accuracy input of
/// every tenant: the loop's inputs first, then further ones made and
/// dropped one at a time. FPISA-A's error comes from rare overwrites, so it
/// takes millions of values for the figure to settle. Deterministic for a
/// seed: the outputs are bit-checked.
double accuracy_pass(collective::Communicator& comm, const Workload& wl,
                     std::uint64_t seed, Tally& tally) {
  switchml::AggregationSession ref = reference_session(wl, seed);
  double err2 = 0;
  double ref2 = 0;
  for (std::size_t ti = 0; ti < wl.tenants.size(); ++ti) {
    const Tenant& t = wl.tenants[ti];
    std::vector<float> out(t.values);
    for (std::size_t k = 0; k < t.accuracy_inputs; ++k) {
      const Input fresh =
          k < t.inputs.size() ? Input{} : make_input(t, ti, k, seed, ref);
      const Input& in = k < t.inputs.size() ? t.inputs[k] : fresh;
      const collective::WorkerViews views(
          std::span<const std::span<const float>>(in.views));
      if (!guarded_call(tally, [&] {
            comm.allreduce(views, out, collective::ReduceOp::kSum, t.name);
          })) {
        continue;
      }
      tally.check(out, in.reference);
      for (std::size_t i = 0; i < out.size(); ++i) {
        const double d = static_cast<double>(out[i]) - in.exact[i];
        err2 += d * d;
        ref2 += static_cast<double>(in.exact[i]) * in.exact[i];
      }
    }
  }
  return std::sqrt(ratio(err2, ref2));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- layer waterfall --------------------------------------------------------

/// Durations (ns) of the spans named `name`, each with its parent span,
/// leaving out children of "warm" passes.
std::vector<std::pair<SpanId, double>> kept_spans(
    const std::vector<telemetry::Trace::SpanView>& spans,
    std::string_view name) {
  std::set<SpanId> warm;
  for (const auto& s : spans) {
    if (s.name == "warm") warm.insert(s.id);
  }
  std::vector<std::pair<SpanId, double>> out;
  for (const auto& s : spans) {
    if (s.name == name && s.dur_ns >= 0 && !warm.count(s.parent)) {
      out.emplace_back(s.parent, static_cast<double>(s.dur_ns));
    }
  }
  return out;
}

/// Per pass span: the summed duration (ns) of its child spans named `name`.
std::vector<double> totals_by_parent(
    const std::vector<telemetry::Trace::SpanView>& spans,
    std::string_view name) {
  std::map<SpanId, double> totals;
  for (const auto& [parent, ns] : kept_spans(spans, name)) totals[parent] += ns;
  std::vector<double> out;
  for (const auto& [parent, ns] : totals) out.push_back(ns);
  return out;
}

/// Median per-pass time of the spans named `name`, in ns per output value.
double ns_per_value(const std::vector<telemetry::Trace::SpanView>& spans,
                    std::string_view name, std::size_t values) {
  const std::vector<double> totals = totals_by_parent(spans, name);
  return totals.empty() ? 0.0 : median(totals) / static_cast<double>(values);
}

/// Percentile over the durations (ms) of the spans named `name`.
double span_percentile_ms(const std::vector<telemetry::Trace::SpanView>& spans,
                          std::string_view name, double q) {
  std::vector<double> ms;
  for (const auto& [parent, ns] : kept_spans(spans, name)) {
    ms.push_back(ns / 1e6);
  }
  std::sort(ms.begin(), ms.end());
  return util::sorted_percentile(ms, q);
}

/// One wave of add packets the way the session and the cluster shard pack
/// them: up to kSlots chunks from `base` on, and for each chunk one packet
/// per worker. Packed into reused buffers just before the wave is applied,
/// as the session does, so the payload is cache-hot when the switch reads
/// it.
struct Wave {
  std::vector<std::uint16_t> slots;
  std::vector<std::uint8_t> workers;
  std::vector<std::uint32_t> values;
  std::size_t chunks = 0;
};

void pack_wave(const Input& in, std::size_t base, Wave& w) {
  const std::size_t n = in.reference.size();
  const std::size_t chunks = (n + kLanes - 1) / kLanes;
  w.slots.clear();
  w.workers.clear();
  w.values.clear();
  w.chunks = std::min(kSlots, chunks - base);
  for (std::size_t c = base; c < base + w.chunks; ++c) {
    for (int k = 0; k < kWorkers; ++k) {
      w.slots.push_back(static_cast<std::uint16_t>(c - base));
      w.workers.push_back(static_cast<std::uint8_t>(k));
      for (std::size_t l = 0; l < kLanes; ++l) {
        const std::size_t i = c * kLanes + l;
        w.values.push_back(
            i < n ? core::fp32_bits(in.workers[static_cast<std::size_t>(k)][i])
                  : 0);
      }
    }
  }
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

cluster::MailboxStats mailbox_totals(const cluster::AggregationService& svc) {
  cluster::MailboxStats sum;
  for (int s = 0; s < svc.num_shards(); ++s) {
    const cluster::MailboxStats ms = svc.mailbox_stats(s);
    sum.wakeups += ms.wakeups;
    sum.spurious_wakeups += ms.spurious_wakeups;
  }
  return sum;
}

/// One layer of the waterfall: `run` makes the layer's calls, each under a
/// child span of the pass span it is given.
struct Layer {
  const char* pass;
  std::function<void(SpanId)> run;
};

/// Drives every layer's public entry point with tenants[0]'s first input,
/// each call under its own span, and appends the per-layer figures to `m`.
/// `loop_p50_ms` is the latency tenant's p50 in the untraced loop.
/// Outputs of the switch, session, service and communicator calls are
/// bit-checked like the timed loop's.
void run_waterfall(const Workload& wl, std::uint64_t seed,
                   collective::Communicator& comm, double budget_s,
                   double loop_p50_ms, telemetry::Trace& trace, Tally& tally,
                   std::vector<Metric>& m) {
  const Tenant& t = wl.tenants[0];
  const Input& in = t.inputs[0];
  const std::size_t n = t.values;
  std::vector<float> out(n);
  std::vector<Layer> layers;

  // core: the SIMD kernels over the W worker vectors, then one read-reset.
  const core::AccumulatorConfig acfg = core_config(wl);
  core::RegisterFile rf(n);
  std::vector<std::vector<std::uint32_t>> bits(kWorkers);
  for (int k = 0; k < kWorkers; ++k) {
    for (float v : in.workers[static_cast<std::size_t>(k)]) {
      bits[static_cast<std::size_t>(k)].push_back(core::fp32_bits(v));
    }
  }
  std::vector<std::uint32_t> out_bits(n);
  core::OpCounters core_ops;
  layers.push_back({"core.pass", [&](SpanId pass) {
    {
      telemetry::ScopedSpan s(&trace, "core.add", pass);
      for (const auto& b : bits) {
        core::fpisa_add_batch(b, rf.exp, rf.man, acfg, core_ops);
      }
    }
    telemetry::ScopedSpan s(&trace, "core.read_reset", pass);
    core::fpisa_read_reset_batch(rf.exp, rf.man, out_bits, acfg);
  }});

  // pisa: the switch datapath at the wave geometry. Each pass runs the
  // input through plain adds, then through guarded adds; packing, stamps
  // and checksums happen outside the spans, as the host does that work.
  pisa::FpisaProgramOptions popts;
  popts.variant = acfg.variant;
  popts.lanes = kLanes;
  popts.slots = kSlots;
  popts.num_workers = kWorkers;
  pisa::FpisaSwitch sw(switch_config(wl), popts);
  Wave w;
  std::vector<std::uint32_t> collected(kSlots * kLanes);
  std::vector<std::uint32_t> stamps;
  std::vector<std::uint16_t> checksums;
  const std::size_t chunks = (n + kLanes - 1) / kLanes;
  auto run_input = [&](SpanId parent, bool guarded) {
    for (std::size_t base = 0; base < chunks; base += kSlots) {
      pack_wave(in, base, w);
      if (guarded) {
        stamps.clear();
        checksums.clear();
        for (std::size_t p = 0; p < w.slots.size(); ++p) {
          const std::uint32_t stamp = sw.slot_stamp(w.slots[p]);
          stamps.push_back(stamp);
          checksums.push_back(pisa::fpisa_checksum(
              w.slots[p], w.workers[p], stamp,
              std::span(w.values).subspan(p * kLanes, kLanes)));
        }
        pisa::FpisaSwitch::GuardStats guard;
        telemetry::ScopedSpan s(&trace, "pisa.add_guarded", parent);
        sw.add_batch_guarded(w.slots, w.workers, stamps, checksums, w.values,
                             guard);
      } else {
        telemetry::ScopedSpan s(&trace, "pisa.add", parent);
        sw.add_batch(w.slots, w.workers, w.values);
      }
      {
        telemetry::ScopedSpan s(
            &trace, guarded ? "pisa.collect_guarded" : "pisa.collect", parent);
        sw.read_and_reset_batch(0, w.chunks,
                                {collected.data(), w.chunks * kLanes});
      }
      for (std::size_t k = 0; k < w.chunks * kLanes; ++k) {
        const std::size_t i = base * kLanes + k;
        if (i < n) out[i] = core::fp32_value(collected[k]);
      }
    }
    tally.check(out, in.reference);
  };
  layers.push_back({"pisa.pass", [&](SpanId p) {
    run_input(p, false);
    run_input(p, true);
  }});

  // switchml: the wave protocol on one switch, with the workload's loss
  // and fault guard.
  switchml::AggregationSession session(switch_config(wl),
                                       session_options(wl, seed, false));
  layers.push_back({"switchml.pass", [&](SpanId p) {
    {
      telemetry::ScopedSpan s(&trace, "switchml.reduce_into", p);
      session.reduce_into(in.views, out);
    }
    tally.check(out, in.reference);
  }});

  // cluster: AggregationService::reduce at 1 shard (a fresh service) and
  // at the workload's shard count (the warm service behind `comm`). The
  // 4-shard service's mailbox and phase books are read around its own
  // calls only: the collective and qos layers share that service.
  const auto comm1 = collective::make_communicator(comm_options(wl, seed, 1));
  cluster::AggregationService& svc1 =
      dynamic_cast<collective::ClusterCommunicator&>(*comm1).service();
  cluster::AggregationService& svc =
      dynamic_cast<collective::ClusterCommunicator&>(comm).service();
  const cluster::JobView job{t.name, in.views};
  auto reduce = [&](cluster::AggregationService& service, SpanId p,
                    const char* span) {
    if (guarded_call(tally, [&] {
          telemetry::ScopedSpan s(&trace, span, p);
          service.reduce(job, out);
        })) {
      tally.check(out, in.reference);
    }
  };
  layers.push_back({"cluster.pass_1shard", [&](SpanId p) {
    reduce(svc1, p, "cluster.reduce_1shard");
  }});
  double wakeups = 0;
  double spurious = 0;
  double add_s = 0;
  double collect_s = 0;
  double jobs = 0;
  layers.push_back({"cluster.pass", [&](SpanId p) {
    const cluster::MailboxStats mb0 = mailbox_totals(svc);
    const auto ph0 = svc.phase_breakdown();
    reduce(svc, p, "cluster.reduce");
    const cluster::MailboxStats mb1 = mailbox_totals(svc);
    const auto ph1 = svc.phase_breakdown();
    wakeups += static_cast<double>(mb1.wakeups - mb0.wakeups);
    spurious +=
        static_cast<double>(mb1.spurious_wakeups - mb0.spurious_wakeups);
    add_s += ph1.add_s - ph0.add_s;
    collect_s += ph1.collect_s - ph0.collect_s;
    ++jobs;
  }});

  // collective: the communicator alone, uncontended.
  const collective::WorkerViews views(
      std::span<const std::span<const float>>(in.views));
  layers.push_back({"collective.pass", [&](SpanId p) {
    if (guarded_call(tally, [&] {
          telemetry::ScopedSpan s(&trace, "collective.allreduce", p);
          comm.allreduce(views, out, collective::ReduceOp::kSum, t.name);
        })) {
      tally.check(out, in.reference);
    }
  }});

  // qos: the latency tenant alone, through the same call its loop client
  // makes, for its uncontended latency.
  const Tenant& lt = wl.tenants[wl.latency_tenant];
  std::vector<float> lt_out(lt.values);
  std::size_t lt_call = 0;
  layers.push_back({"qos.pass", [&](SpanId p) {
    const Input& li = lt.inputs[lt_call++ % lt.inputs.size()];
    const collective::WorkerViews lt_views(
        std::span<const std::span<const float>>(li.views));
    if (guarded_call(tally, [&] {
          telemetry::ScopedSpan s(&trace, "qos.alone", p);
          if (wl.tenants.size() == 1) {
            comm.allreduce(lt_views, lt_out, collective::ReduceOp::kSum,
                           lt.name);
          } else {
            comm.submit(lt_views, lt_out, collective::ReduceOp::kSum, lt.name)
                .wait();
          }
        })) {
      tally.check(lt_out, li.reference);
    }
  }});

  // Rounds: every layer runs once per round, so drift in the machine's
  // speed hits all layers alike and the differences between layers (the
  // self times) stay meaningful. Each layer first runs a "warm" pass,
  // left out of the figures: it brings back the caches and awake threads
  // that back-to-back calls see, after the other layers displaced them.
  const SpanId root = trace.begin("waterfall");
  const Clock::time_point t0 = Clock::now();
  for (int round = 0;
       round < kMinLayerReps || seconds_between(t0, Clock::now()) < budget_s;
       ++round) {
    for (const Layer& layer : layers) {
      {
        telemetry::ScopedSpan warm(&trace, "warm", root);
        layer.run(warm.id());
      }
      telemetry::ScopedSpan span(&trace, layer.pass, root);
      layer.run(span.id());
    }
  }
  trace.end(root);

  // Plain and guarded adds apply the same packets, so the pooled counters
  // give the same ratio as either alone.
  const core::OpCounters& ops = sw.op_counters();
  const switchml::SessionStats& st = session.stats();
  pisa::FpisaSwitch& ssw = session.fpisa_switch();
  m.insert(m.end(),
           {{"pisa.overwrite_ratio", ratio(ops.overwrites, ops.adds), "ratio"},
            {"pisa.dedup_ratio",
             ratio(ssw.dedup_hits(), ssw.sim().packets_processed()), "ratio"},
            {"switchml.retransmit_ratio",
             ratio(st.retransmissions, st.packets_sent), "ratio"},
            {"cluster.wakeups_per_job", ratio(wakeups, jobs), "count"},
            {"cluster.spurious_wakeup_ratio", ratio(spurious, wakeups),
             "ratio"},
            {"cluster.add_phase_ms", ratio(add_s * 1e3, jobs), "ms"},
            {"cluster.collect_phase_ms", ratio(collect_s * 1e3, jobs), "ms"}});

  const auto spans = trace.spans();
  const double core_add = ns_per_value(spans, "core.add", n);
  const double core_rr = ns_per_value(spans, "core.read_reset", n);
  const double pisa_plain = ns_per_value(spans, "pisa.add", n);
  const double pisa_guarded = ns_per_value(spans, "pisa.add_guarded", n);
  const double pisa_add = wl.lossy ? pisa_guarded : pisa_plain;
  const double pisa_collect = ns_per_value(
      spans, wl.lossy ? "pisa.collect_guarded" : "pisa.collect", n);
  const double sml = ns_per_value(spans, "switchml.reduce_into", n);
  const double c1 = ns_per_value(spans, "cluster.reduce_1shard", n);
  const double cs = ns_per_value(spans, "cluster.reduce", n);
  const double coll = ns_per_value(spans, "collective.allreduce", n);
  const char* kNs = "ns/value";
  m.insert(m.end(), {
      {"core.add_ns_per_value", core_add, kNs},
      {"core.read_reset_ns_per_value", core_rr, kNs},
      {"pisa.add_ns_per_value", pisa_add, kNs},
      {"pisa.collect_ns_per_value", pisa_collect, kNs},
      {"fault.guard_ns_per_value", pisa_guarded - pisa_plain, kNs},
      {"switchml.reduce_ns_per_value", sml, kNs},
      {"switchml.self_ns_per_value", sml - pisa_add - pisa_collect, kNs},
      {"cluster.reduce_1shard_ns_per_value", c1, kNs},
      {"cluster.reduce_ns_per_value", cs, kNs},
      {"cluster.self_ns_per_value", c1 - sml, kNs},
      {"cluster.scaling_efficiency", ratio(c1, kShards * cs), "ratio"},
      {"collective.allreduce_ns_per_value", coll, kNs},
      {"collective.self_ns_per_value", coll - cs, kNs},
      {"qos.query_wait_ms",
       loop_p50_ms - span_percentile_ms(spans, "qos.alone", 0.5), "ms"},
  });
}

// --- output -----------------------------------------------------------------

std::string json_escape(std::string_view s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

/// Shortest form that reads back as the same double. JSON has no infinity
/// (a failed call's latency) or NaN, so those print as null.
std::string fmt_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

void print_result(bool correct, const Tally& tally,
                  const std::vector<Metric>& metrics) {
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(tally.attempted) +
                     ", \"failed\": " + std::to_string(tally.failed()) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            fmt_number(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

void print_context(const Workload& wl, std::uint64_t seed, bool traced,
                   bool selfcheck, const Tally& tally,
                   const std::string& trace_out) {
  const util::BuildInfo& b = util::build_info();
  std::printf(
      "{\"context\": {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"nproc\": %u, \"batch_backend\": \"%s\", \"build\": {\"git\": "
      "\"%s\", \"compiler\": \"%s\", \"type\": \"%s\", \"sanitizer\": "
      "\"%s\", \"avx2\": %s}, \"selfcheck_detected\": %s, \"thrown\": %llu, "
      "\"rejected\": %llu, \"wrong\": %llu, \"trace_file\": \"%s\"}}\n",
      wl.name.c_str(), static_cast<unsigned long long>(seed), traced ? 1 : 0,
      std::thread::hardware_concurrency(),
      std::string(core::batch_backend_name()).c_str(),
      json_escape(b.git_describe).c_str(), json_escape(b.compiler).c_str(),
      json_escape(b.build_type).c_str(), json_escape(b.sanitizer).c_str(),
      b.avx2 ? "true" : "false", selfcheck ? "true" : "false",
      static_cast<unsigned long long>(tally.thrown),
      static_cast<unsigned long long>(tally.rejected),
      static_cast<unsigned long long>(tally.wrong),
      json_escape(trace_out).c_str());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    try {
      if (k == "--workload") {
        a.workload = v;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
      } else if (k == "--trace") {
        a.trace = std::stoi(v) != 0;
      } else if (k == "--trace-out") {
        a.trace_out = v;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  Workload wl;
  if (!parse_args(argc, argv, args) || !make_workload(args.workload, wl)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload allreduce_8k|allreduce_1m|"
                 "tenants_lossy --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE]\n");
    return 2;
  }
  make_inputs(wl, args.seed);

  Tally tally;
  std::vector<double> setup_times;
  bool selfcheck = false;
  const auto comm_owner = set_up(wl, args.seed, tally, setup_times, &selfcheck);
  collective::Communicator& comm = *comm_owner;
  auto& service =
      dynamic_cast<collective::ClusterCommunicator&>(comm).service();
  tally += run_loop(comm, wl, kWarmupSeconds, nullptr).tally;
  std::vector<Metric> metrics;

  if (!args.trace) {
    LoopResult loop;
    std::vector<double> segment_vps;
    for (int i = 0; i < kSegments; ++i) {
      const LoopResult seg =
          run_loop(comm, wl, args.seconds / kSegments, nullptr);
      segment_vps.push_back(static_cast<double>(seg.values) / seg.wall_s);
      loop += seg;
      for (int p = 0; p < kProbesPerSegment; ++p) {
        set_up(wl, args.seed, tally, setup_times);
      }
    }
    tally += loop.tally;
    const double rel_l2 = accuracy_pass(comm, wl, args.seed, tally);
    std::vector<double> lat = loop.latency_ms[wl.latency_tenant];
    std::sort(lat.begin(), lat.end());
    metrics = {
        {"setup_s", median(setup_times), "s"},
        {"values_per_s", median(segment_vps), "1/s"},
        {"job_p50_ms", util::sorted_percentile(lat, 0.5), "ms"},
        {"job_p90_ms", util::sorted_percentile(lat, 0.9), "ms"},
        {"rel_l2_error", rel_l2, "ratio"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
  } else {
    // Untraced and traced slices of the loop alternate, so drift hits both
    // alike; their throughput ratio is the cost of tracing. The rest of
    // the time goes to the layer waterfall.
    telemetry::Trace trace;
    constexpr int kSlices = 4;
    const double slice_s = 0.3 * args.seconds / kSlices;
    LoopResult plain;
    LoopResult traced;
    for (int i = 0; i < kSlices; ++i) {
      plain += run_loop(comm, wl, slice_s, nullptr);
      traced += run_loop(comm, wl, slice_s, &trace);
    }
    tally += plain.tally;
    tally += traced.tally;
    std::vector<double> lat = plain.latency_ms[wl.latency_tenant];
    std::sort(lat.begin(), lat.end());
    run_waterfall(wl, args.seed, comm, 0.4 * args.seconds,
                  util::sorted_percentile(lat, 0.5), trace, tally, metrics);

    const double plain_vps = static_cast<double>(plain.values) / plain.wall_s;
    const double traced_vps =
        static_cast<double>(traced.values) / traced.wall_s;
    const double jobs = static_cast<double>(service.jobs_completed());
    const double corrupt =
        static_cast<double>(service.total_stats().faults.corrupt_rejected);
    metrics.insert(metrics.end(), {
        {"qos.jobs_rejected", static_cast<double>(service.jobs_rejected()),
         "count"},
        {"fault.corrupt_rejected_per_job", ratio(corrupt, jobs), "count"},
        {"collective.job_p99_ms",
         span_percentile_ms(trace.spans(),
                            "job." + wl.tenants[wl.latency_tenant].name, 0.99),
         "ms"},
        {"bench.trace_overhead_pct", (ratio(plain_vps, traced_vps) - 1) * 100,
         "%"},
    });
    if (!args.trace_out.empty()) {
      std::ofstream(args.trace_out) << trace.chrome_trace_json();
    }
  }

  const bool correct = selfcheck && tally.wrong == 0 && tally.attempted > 0;
  print_context(wl, args.seed, args.trace, selfcheck, tally, args.trace_out);
  print_result(correct, tally, metrics);
  return 0;
}
