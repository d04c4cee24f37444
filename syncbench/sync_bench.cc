// End-to-end sync benchmark: replays one workload through InterceptingFs ->
// DeltaCfsClient -> Transport -> CloudServer -> a mirror client, times every
// layer from outside (probe.h), checks that all three copies converge, and
// prints the metrics.  See README.md in this directory for the metric
// definitions and how to read a traced run.
//
//   sync_bench --workload word_txn --seed 1 --seconds 20 --trace 0
//              [--out-dir DIR]
//
// One run: a layer-coverage self-check on a smoke size of the chosen
// workload, then passes of it until --seconds is spent.  Each pass builds a
// fresh stack, sets it up (timed as setup_s), replays the trace and drains.
// The first pass warms the allocator and is left out of the medians.
// --trace 0 runs
// untraced passes and reports the end-to-end metrics; --trace 1 alternates
// untraced and traced passes and reports the per-layer metrics.  The last
// stdout line is the result JSON.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <condition_variable>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "core/client.h"
#include "metrics/cost.h"
#include "net/transport.h"
#include "obs/obs.h"
#include "probe.h"
#include "server/cloud_server.h"
#include "traces.h"
#include "trace/workloads.h"
#include "vfs/intercept.h"
#include "vfs/memfs.h"

namespace syncbench {
namespace {

constexpr Duration kTick = milliseconds(200);
/// Idle time after the last step so upload delays and relation timeouts
/// fire before the final flush (as in dcfs::run_workload).
constexpr Duration kIdleDrain = seconds(12);
constexpr std::uint32_t kEditId = 1;
constexpr std::uint32_t kMirrorId = 2;
#ifdef DCFS_CHK_ENABLED
constexpr bool kDcfsChk = true;
#else
constexpr bool kDcfsChk = false;
#endif
/// No single call takes this long; a run that goes this long without
/// returning from one is deadlocked.
constexpr std::int64_t kStallLimitNs = 30'000'000'000;

/// Wall time at which the last timed call returned.
std::atomic<std::int64_t> last_progress_ns{0};

/// Ends the process, with a diagnostic and exit code 3, when no timed call
/// has returned for kStallLimitNs, so a deadlocked run fails fast instead
/// of hanging until it is killed.
class Watchdog {
 public:
  Watchdog() {
    last_progress_ns.store(wall_ns(), std::memory_order_relaxed);
    thread_ = std::thread([this] { watch(); });
  }
  ~Watchdog() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  void watch() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::seconds(1), [&] { return stop_; })) {
      const std::int64_t idle =
          wall_ns() - last_progress_ns.load(std::memory_order_relaxed);
      if (idle > kStallLimitNs) {
        std::fprintf(stderr,
                     "sync_bench: no call returned for %lld s; the run is "
                     "deadlocked\n",
                     static_cast<long long>(idle / 1'000'000'000));
        std::_Exit(3);
      }
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Spec {
  std::string name;
  ClientConfig client;
  ServerConfig server;
  std::function<std::unique_ptr<Workload>(std::uint64_t seed, bool smoke)>
      make;
};

Spec word_txn() {
  Spec spec;
  spec.name = "word_txn";
  spec.client.delta_threads = 2;
  spec.server.apply_shards = 2;
  spec.make = [](std::uint64_t seed, bool smoke) -> std::unique_ptr<Workload> {
    // The paper's document and growth per save, over 17 of its 61 saves
    // (about 1,000 app calls a pass).
    WordParams p = WordParams::paper();
    p.final_bytes =
        p.initial_bytes + (p.final_bytes - p.initial_bytes) * 17 / p.saves;
    p.saves = 17;
    if (smoke) {
      p.saves = 8;
      p.initial_bytes = 4ull << 20;
      p.final_bytes = p.initial_bytes + (800 << 10);
    }
    p.seed = seed;
    return std::make_unique<WordWorkload>(p);
  };
  return spec;
}

Spec wechat_inplace() {
  Spec spec;
  spec.name = "wechat_inplace";
  spec.client.enable_checksums = true;
  spec.make = [](std::uint64_t seed, bool smoke) -> std::unique_ptr<Workload> {
    // The paper's 373 updates on a 1 MB DB instead of 131 MB: the cloud
    // re-chunks the whole DB per version.
    WeChatParams p = WeChatParams::paper();
    p.initial_bytes = 1ull << 20;
    p.final_bytes = p.initial_bytes + std::uint64_t{p.updates} * p.page_size;
    if (smoke) {
      p.updates = 30;
      p.final_bytes = p.initial_bytes + 30 * p.page_size;
    }
    p.seed = seed;
    return std::make_unique<WeChatTrace>(p);
  };
  return spec;
}

Spec import_move() {
  Spec spec;
  spec.name = "import_move";
  ClientConfig& c = spec.client;
  c.wire_compression = true;
  c.bundle_uploads = true;
  c.recon_mode = ReconMode::adaptive;
  c.recon_min_bytes = 1ull << 20;    // library files reconcile...
  c.stream_min_bytes = 256 * 1024;   // ...smaller camera files stream
  c.stream_window_bytes = 256 * 1024;
  c.stream_chunk_bytes = 64 * 1024;
  spec.server.wire_compression = true;
  spec.make = [](std::uint64_t seed, bool smoke) -> std::unique_ptr<Workload> {
    ImportParams p;
    if (smoke) {
      p.library_files = 2;
      p.library_min_bytes = 1100 * 1024;
      p.library_max_bytes = 1400 * 1024;
      p.imports = 6;
      p.camera_min_bytes = 300 * 1024;
      p.camera_max_bytes = 500 * 1024;
    }
    p.seed = seed;
    return std::make_unique<ImportMoveTrace>(p);
  };
  return spec;
}

std::vector<Spec> all_specs() {
  return {word_txn(), wechat_inplace(), import_move()};
}

// ---------------------------------------------------------------------------
// The stack: editing device, cloud, mirror device
// ---------------------------------------------------------------------------

ClientConfig with_id(ClientConfig config, std::uint32_t id) {
  config.client_id = id;
  return config;
}

class Stack {
 public:
  Stack(const Spec& spec, obs::Obs* obs, Probe& probe)
      : probe_(probe),
        edit_disk(clock),
        edit_local(edit_disk, probe),
        edit_link(NetProfile::pc_wan(), obs),
        mirror_link(NetProfile::pc_wan(), obs),
        server(CostProfile::pc(), spec.server, obs),
        client(edit_local, edit_link, clock, CostProfile::pc(),
               with_id(spec.client, kEditId), nullptr, obs),
        sink(client, probe),
        intercept(edit_disk, sink, obs),
        app(intercept, probe),
        mirror_disk(clock),
        mirror_local(mirror_disk, probe),
        mirror(mirror_local, mirror_link, clock, CostProfile::pc(),
               with_id(spec.client, kMirrorId), nullptr, obs) {
    server.attach(kEditId, edit_link);
    server.attach(kMirrorId, mirror_link);
  }

  /// One tick's sync work: client uploads, the cloud applies and forwards,
  /// the client takes its acks, the mirror applies the forwards.
  void tick() {
    obs::Span span(probe_.tracer, probe_.names.tick, probe_.names.cat);
    const TimePoint now = clock.now();
    timed(probe_.client_tick, probe_.names.client_tick,
          [&] { client.tick(now); });
    timed(probe_.server, probe_.names.server_pump, [&] { server.pump(); });
    timed(probe_.client_tick, probe_.names.client_tick,
          [&] { client.tick(now); });
    timed(probe_.mirror, probe_.names.mirror_tick, [&] { mirror.tick(now); });
  }

  /// Ticks until the virtual clock reaches `t`.
  void advance_to(TimePoint t) {
    while (clock.now() < t) {
      clock.advance(std::min<Duration>(kTick, t - clock.now()));
      tick();
    }
  }

  [[nodiscard]] bool quiescent() {
    return client.queue().empty() && client.recon_in_flight() == 0 &&
           client.streams_in_flight() == 0 && client.deferred_pending() == 0 &&
           mirror.queue().empty() && edit_link.idle() && mirror_link.idle() &&
           server.streams_active() == 0;
  }

  /// Idle ticks, then flush rounds until every queue, link, recon session
  /// and stream is drained.  False if the stack never settles.
  [[nodiscard]] bool drain() {
    obs::Span span(probe_.tracer, probe_.names.drain, probe_.names.cat);
    advance_to(clock.now() + kIdleDrain);
    for (int round = 0; round < 1024; ++round) {
      if (quiescent()) return true;
      const TimePoint now = clock.now();
      timed(probe_.client_tick, probe_.names.client_flush,
            [&] { client.flush(now); });
      timed(probe_.server, probe_.names.server_pump, [&] { server.pump(); });
      timed(probe_.client_tick, probe_.names.client_tick,
            [&] { client.tick(now); });
      timed(probe_.mirror, probe_.names.mirror_tick,
            [&] { mirror.tick(now); });
    }
    return quiescent();
  }

  void reset_meters() {
    client.meter().reset();
    mirror.meter().reset();
    server.meter().reset();
    edit_link.reset_meter();
    mirror_link.reset_meter();
  }

 private:
  template <class F>
  void timed(Timed& acc, obs::NameId name, F&& fn) {
    const std::int64_t c0 = cpu_ns();
    const std::int64_t w0 = wall_ns();
    {
      obs::Span span(probe_.tracer, name, probe_.names.cat);
      fn();
    }
    const std::int64_t w1 = wall_ns();
    acc.add(w1 - w0, cpu_ns() - c0);
    last_progress_ns.store(w1, std::memory_order_relaxed);
    probe_.sample_rss();
  }

  Probe& probe_;

 public:
  VirtualClock clock;
  MemFs edit_disk;
  LocalFs edit_local;
  Transport edit_link;
  Transport mirror_link;
  CloudServer server;
  DeltaCfsClient client;
  TimedSink sink;
  InterceptingFs intercept;
  AppFs app;
  MemFs mirror_disk;
  MirrorFs mirror_local;
  DeltaCfsClient mirror;
};

/// Every file under `root`, with its content.
std::map<std::string, Bytes> files_under(MemFs& fs, const std::string& root) {
  std::map<std::string, Bytes> out;
  std::vector<std::string> dirs{root};
  while (!dirs.empty()) {
    const std::string dir = dirs.back();
    dirs.pop_back();
    Result<std::vector<std::string>> names = fs.list_dir(dir);
    if (!names) continue;
    for (const std::string& name : *names) {
      const std::string full = dir + "/" + name;
      const Result<FileStat> st = fs.stat(full);
      if (!st) continue;
      if (st->type == NodeType::directory) {
        dirs.push_back(full);
      } else if (Result<Bytes> content = fs.read_file(full)) {
        out.emplace(full, std::move(*content));
      }
    }
  }
  return out;
}

/// Empty when the editing device, the cloud and the mirror hold the same
/// files with the same bytes; otherwise the first difference.
std::string convergence_error(Stack& s) {
  const std::string root = s.client.config().sync_root;
  const std::map<std::string, Bytes> edit = files_under(s.edit_disk, root);
  const std::map<std::string, Bytes> mirror = files_under(s.mirror_disk, root);
  const std::vector<std::string> cloud = s.server.paths();
  if (!s.server.conflict_paths().empty()) {
    return "conflict copy on the cloud: " + s.server.conflict_paths().front();
  }
  if (cloud.size() != edit.size() || mirror.size() != edit.size()) {
    return "file counts differ: device " + std::to_string(edit.size()) +
           ", cloud " + std::to_string(cloud.size()) + ", mirror " +
           std::to_string(mirror.size());
  }
  for (const auto& [path, content] : edit) {
    const Result<Bytes> remote = s.server.fetch(path);
    if (!remote || *remote != content) return "cloud differs at " + path;
    const auto it = mirror.find(path);
    if (it == mirror.end() || it->second != content) {
      return "mirror differs at " + path;
    }
  }
  return {};
}

// ---------------------------------------------------------------------------
// One pass
// ---------------------------------------------------------------------------

using Counts = std::vector<std::pair<std::string, std::uint64_t>>;
using Metrics = std::vector<std::pair<std::string, double>>;

/// Self time per span name and per layer, from one traced pass.
struct TraceAnalysis {
  std::map<std::string, double> span_self_us;
  std::map<std::string, double> layer_self_us;
  std::uint64_t events = 0;
};

const char* const kLayers[] = {"app", "vfs",    "local",  "core", "rsyncx",
                               "net", "server", "mirror", "bench"};

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

/// Layer a main-track span's self time belongs to.  Program spans under the
/// mirror's tick are the mirror's, whatever their name.
std::string layer_of(std::string_view name, bool under_mirror) {
  if (under_mirror) return "mirror";
  if (starts_with(name, "bench.app.") || starts_with(name, "intercept.")) {
    return "vfs";
  }
  if (starts_with(name, "bench.local.")) return "local";
  if (name == "client.delta" || name == "client.recon_round") return "rsyncx";
  if (name == "client.upload" || name == "client.wire_encode") return "net";
  if (starts_with(name, "bench.hook.") || starts_with(name, "client.") ||
      name == "bench.client_tick" || name == "bench.client_flush") {
    return "core";
  }
  if (name == "bench.server_pump" || starts_with(name, "server.")) {
    return "server";
  }
  if (name == "bench.step") return "app";
  return "bench";  // the bench's own tick and drain loop
}

TraceAnalysis analyze(const std::vector<obs::TraceEvent>& events) {
  struct Open {
    std::string_view name;
    TimePoint start;
    double child_us;
    bool mirror;
  };
  TraceAnalysis out;
  out.events = events.size();
  for (const char* layer : kLayers) out.layer_self_us[layer] = 0;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<Open>> stacks;
  for (const obs::TraceEvent& e : events) {
    if (e.phase != 'B' && e.phase != 'E') continue;
    std::vector<Open>& stack = stacks[{e.pid, e.tid}];
    if (e.phase == 'B') {
      const bool mirror = (!stack.empty() && stack.back().mirror) ||
                          e.name == "bench.mirror_tick";
      stack.push_back({e.name, e.ts, 0, mirror});
      continue;
    }
    if (stack.empty()) continue;
    const Open open = stack.back();
    stack.pop_back();
    const double dur = static_cast<double>(e.ts - open.start);
    const double self = std::max(0.0, dur - open.child_us);
    out.span_self_us[std::string(open.name)] += self;
    if (!stack.empty()) stack.back().child_us += dur;
    if (e.tid == 1) out.layer_self_us[layer_of(open.name, open.mirror)] += self;
  }
  return out;
}

struct PassResult {
  bool traced = false;
  /// The run's first pass: checked like every pass, but left out of the
  /// medians while the allocator and caches warm up.
  bool warmup = false;
  std::string error;  ///< empty when the pass converged and nothing failed
  double setup_s = 0;
  double measured_s = 0;
  std::uint64_t update_bytes = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Counts counts;  ///< must repeat exactly in every pass of one seed
  double client_cpu_s = 0;
  double server_cpu_s = 0;
  double mirror_cpu_s = 0;
  double peak_rss_mb = 0;
  std::vector<std::uint32_t> app_latency_ns;
  std::array<CostSnapshot, 3> cost{};  ///< client, server, mirror
  Metrics layer;                       ///< per-layer metrics (traced)
  std::string largest_layer;
  std::string chrome_json;

  [[nodiscard]] double sync_mb_s() const {
    return static_cast<double>(update_bytes) / 1e6 / measured_s;
  }
};

std::uint64_t count_of(const obs::Snapshot& snap, std::string_view name) {
  return snap.has_counter(name) ? snap.counter(name) : 0;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Link counters of one device, with the per-message-type bytes.
void add_link_counts(Counts& c, const std::string& prefix,
                     const TrafficMeter& m) {
  c.emplace_back(prefix + "up_bytes", m.up_bytes());
  c.emplace_back(prefix + "down_bytes", m.down_bytes());
  c.emplace_back(prefix + "up_frames", m.up_messages());
  c.emplace_back(prefix + "down_frames", m.down_messages());
  for (std::size_t i = 0; i < proto::kMessageTypeCount; ++i) {
    const auto type = static_cast<proto::MessageType>(i);
    const std::string name = prefix + std::string(proto::to_string(type));
    c.emplace_back(name + "_bytes", m.up_bytes(type) + m.down_bytes(type));
    c.emplace_back(name + "_frames",
                   m.up_messages(type) + m.down_messages(type));
  }
}

std::uint64_t find_count(const Counts& c, std::string_view name) {
  for (const auto& [key, value] : c) {
    if (key == name) return value;
  }
  return 0;
}

/// Empty when pass `b` repeated the counts of pass `a` (same seed);
/// otherwise the first difference.  Counts must match exactly, with one
/// exception: under wire compression a traced pass's trace ids (zero when
/// untraced) compress differently, so when exactly one of the passes is
/// traced, each link byte count may differ by up to the 8-byte trace id of
/// each frame it counts.
std::string count_mismatch(const PassResult& a, const PassResult& b,
                           bool wire_compression) {
  const bool trace_ids_differ = wire_compression && a.traced != b.traced;
  for (std::size_t i = 0; i < a.counts.size() && i < b.counts.size(); ++i) {
    const auto& [name, value] = a.counts[i];
    const std::uint64_t other = b.counts[i].second;
    if (value == other) continue;
    const std::uint64_t diff = value > other ? value - other : other - value;
    if (trace_ids_differ && starts_with(name, "net.") &&
        name.ends_with("_bytes")) {
      const std::string frames =
          name.substr(0, name.size() - std::string_view("bytes").size()) +
          "frames";
      if (diff <= 8 * find_count(a.counts, frames)) continue;
    }
    return ": " + name + " " + std::to_string(value) + " vs " +
           std::to_string(other);
  }
  return a.counts.size() == b.counts.size() ? "" : ": different count sets";
}

/// Running totals of the clients' cumulative counters, so the measured
/// phase can subtract what set-up already did.
struct Cumulative {
  std::uint64_t records = 0, deltas = 0, server_records = 0, sessions = 0,
                rounds = 0, fallbacks = 0, streams = 0, stalls = 0, chunks = 0, forwards = 0,
                errors = 0, conflicts = 0, groups = 0, sig_hits = 0,
                sig_misses = 0;

  static Cumulative of(Stack& s) {
    Cumulative c;
    c.records = s.client.records_uploaded();
    c.deltas = s.client.deltas_triggered();
    c.server_records = s.server.records_applied();
    c.sessions = s.client.recon_sessions_started();
    c.rounds = s.client.recon_rounds_sent();
    c.fallbacks = s.client.recon_fallbacks();
    c.streams = s.client.streams_started();
    c.stalls = s.client.stream_stalls();
    c.chunks = s.server.stream_chunks();
    c.forwards = s.mirror.forwards_applied();
    c.errors = s.client.errors_acked() + s.mirror.errors_acked();
    c.conflicts = s.client.conflicts_acked() + s.mirror.conflicts_acked();
    c.groups = s.server.txn_groups_applied();
    c.sig_hits = s.client.signature_cache_hits();
    c.sig_misses = s.client.signature_cache_misses();
    return c;
  }
};

struct PassOptions {
  bool smoke = false;       ///< the self-check's small size
  bool traced = false;
  bool keep_trace = false;  ///< keep the Chrome JSON of this pass
};

PassResult run_pass(const Spec& spec, std::uint64_t seed,
                    const PassOptions& options, const RssSampler& rss) {
  const bool traced = options.traced;
  PassResult r;
  r.traced = traced;
  malloc_trim(0);  // every pass starts from the same heap footprint

  const std::int64_t setup_start = wall_ns();
  SteadyClock steady;
  std::unique_ptr<obs::Obs> obs;
  Probe probe;
  probe.rss = &rss;
  if (traced) {
    obs = std::make_unique<obs::Obs>();
    obs->tracer.set_capacity(std::size_t{1} << 26);
    obs->tracer.enable(steady);
    probe.tracer = &obs->tracer;
    intern_names(obs->tracer, probe.names);
  }
  Stack s(spec, obs.get(), probe);
  std::unique_ptr<Workload> workload = spec.make(seed, options.smoke);
  {
    obs::Span span(probe.tracer, probe.names.setup, probe.names.cat);
    s.app.mkdir(s.client.config().sync_root);
    workload->setup(s.app);
    if (!s.drain()) r.error = "set-up never settled";
  }
  r.setup_s = static_cast<double>(wall_ns() - setup_start) / 1e9;
  const std::uint64_t setup_update_bytes = workload->update_bytes();
  const std::uint64_t setup_app_errors = probe.app_errors;
  const std::uint64_t setup_rejects = probe.mirror_rejects;
  s.reset_meters();
  probe.reset();
  const Cumulative base = Cumulative::of(s);
  const obs::Snapshot base_snap =
      obs ? obs->registry.snapshot() : obs::Snapshot{};
  if (obs) obs->tracer.clear();

  // Measured phase: the trace steps at their virtual times, 200 ms ticks in
  // between, then the drain.
  probe.measuring = true;
  probe.rss_peak = rss.bytes();
  const std::int64_t measure_start = wall_ns();
  {
    obs::Span span(probe.tracer, probe.names.pass, probe.names.cat);
    bool more = true;
    while (more) {
      s.advance_to(workload->next_time());
      {
        obs::Span step(probe.tracer, probe.names.step, probe.names.cat);
        more = workload->step(s.app);
      }
      s.tick();
    }
    if (!s.drain() && r.error.empty()) r.error = "sync never drained";
  }
  r.measured_s = static_cast<double>(wall_ns() - measure_start) / 1e9;
  probe.measuring = false;

  // Outcomes.
  const Cumulative now = Cumulative::of(s);
  r.update_bytes = workload->update_bytes() - setup_update_bytes;
  r.client_cpu_s =
      static_cast<double>(probe.app.cpu_ns + probe.client_tick.cpu_ns) / 1e9;
  r.server_cpu_s = static_cast<double>(probe.server.cpu_ns) / 1e9;
  r.mirror_cpu_s = static_cast<double>(probe.mirror.cpu_ns) / 1e9;
  r.peak_rss_mb = static_cast<double>(probe.rss_peak) / (1 << 20);
  r.app_latency_ns = std::move(probe.app_latency_ns);
  r.cost = {s.client.meter().snapshot(), s.server.meter().snapshot(),
            s.mirror.meter().snapshot()};

  Counts& c = r.counts;
  c.emplace_back("update_bytes", r.update_bytes);
  c.emplace_back("app_calls", probe.app.calls);
  c.emplace_back("app_errors", probe.app_errors);
  add_link_counts(c, "net.", s.edit_link.meter());
  add_link_counts(c, "net.mirror.", s.mirror_link.meter());
  c.emplace_back("records_uploaded", now.records - base.records);
  c.emplace_back("server_records", now.server_records - base.server_records);
  c.emplace_back("txn_groups", now.groups - base.groups);
  c.emplace_back("deltas", now.deltas - base.deltas);
  c.emplace_back("recon_sessions", now.sessions - base.sessions);
  c.emplace_back("recon_rounds", now.rounds - base.rounds);
  c.emplace_back("recon_fallbacks", now.fallbacks - base.fallbacks);
  c.emplace_back("streams", now.streams - base.streams);
  c.emplace_back("stream_stalls", now.stalls - base.stalls);
  c.emplace_back("stream_chunks", now.chunks - base.chunks);
  c.emplace_back("stream_mem_highwater", s.client.stream_mem_highwater());
  c.emplace_back("forwards", now.forwards - base.forwards);
  c.emplace_back("sigcache_hits", now.sig_hits - base.sig_hits);
  c.emplace_back("sigcache_misses", now.sig_misses - base.sig_misses);
  c.emplace_back("acks_error", now.errors);
  c.emplace_back("acks_conflict", now.conflicts);
  c.emplace_back("mirror_rejects", probe.mirror_rejects + setup_rejects);

  r.attempted = probe.app.calls + (now.records - base.records) +
                (now.forwards - base.forwards);
  r.failed = probe.app_errors + setup_app_errors + now.errors +
             now.conflicts + probe.mirror_rejects + setup_rejects;
  if (r.error.empty()) r.error = convergence_error(s);
  if (r.error.empty() && r.failed > 0) {
    r.error = std::to_string(r.failed) + " failed operations (app " +
              std::to_string(probe.app_errors + setup_app_errors) +
              ", error acks " + std::to_string(now.errors) +
              ", conflict acks " + std::to_string(now.conflicts) +
              ", mirror rejects " +
              std::to_string(probe.mirror_rejects + setup_rejects) + ")";
  }
  if (r.error.empty() && r.update_bytes == 0) r.error = "no update bytes";

  if (!traced) return r;

  // Per-layer metrics (traced passes only).
  obs->tracer.disable();
  if (obs->tracer.dropped() != 0) {
    r.error = "tracer dropped " + std::to_string(obs->tracer.dropped()) +
              " events";
  }
  const obs::Snapshot snap = obs->registry.snapshot();
  auto delta_of = [&](std::string_view name) {
    return static_cast<double>(count_of(snap, name) - count_of(base_snap, name));
  };
  const TraceAnalysis trace = analyze(obs->tracer.events());
  const double us = 1e-3;  // ns -> µs
  Metrics& m = r.layer;
  double hook_wall_ns = 0;
  for (const Timed& t : probe.hooks) hook_wall_ns += static_cast<double>(t.wall_ns);
  m.emplace_back("vfs.self_us",
                 (static_cast<double>(probe.app.wall_ns) - hook_wall_ns) * us);
  m.emplace_back("vfs.local_us", static_cast<double>(probe.local.wall_ns) * us);
  m.emplace_back("vfs.local_bytes", static_cast<double>(probe.local_bytes));
  m.emplace_back("vfs.app_calls", static_cast<double>(probe.app.calls));
  for (std::size_t i = 0; i < kHookCount; ++i) {
    const std::string name = std::string("core.hook.") + kHookNames[i];
    m.emplace_back(name + "_us",
                   static_cast<double>(probe.hooks[i].wall_ns) * us);
    m.emplace_back(name + ".calls", static_cast<double>(probe.hooks[i].calls));
  }
  m.emplace_back("core.tick_us",
                 static_cast<double>(probe.client_tick.wall_ns) * us);
  m.emplace_back("core.records_uploaded",
                 static_cast<double>(find_count(c, "records_uploaded")));
  const double sig_hits = static_cast<double>(find_count(c, "sigcache_hits"));
  const double sig_misses =
      static_cast<double>(find_count(c, "sigcache_misses"));
  m.emplace_back("core.sigcache.hit_ratio",
                 ratio(sig_hits, sig_hits + sig_misses));
  m.emplace_back("core.queue.write_merges", delta_of("queue.write_merges"));
  m.emplace_back("core.relation.hits", delta_of("client.relation.hit"));
  m.emplace_back("core.relation.misses", delta_of("client.relation.miss"));
  m.emplace_back("rsyncx.delta_us", static_cast<double>(probe.delta.wall_ns) * us);
  m.emplace_back("rsyncx.deltas", static_cast<double>(probe.deltas));
  const double sessions = static_cast<double>(find_count(c, "recon_sessions"));
  m.emplace_back("rsyncx.recon.sessions", sessions);
  m.emplace_back("rsyncx.recon.rounds",
                 static_cast<double>(find_count(c, "recon_rounds")));
  m.emplace_back(
      "rsyncx.recon.fallback_ratio",
      ratio(static_cast<double>(find_count(c, "recon_fallbacks")), sessions));
  m.emplace_back("rsyncx.recon.net_bytes",
                 static_cast<double>(find_count(c, "net.recon_bytes")));
  m.emplace_back("par.delta_cpu_per_wall",
                 ratio(static_cast<double>(probe.delta.cpu_ns),
                       static_cast<double>(probe.delta.wall_ns)));
  m.emplace_back("par.pump_cpu_per_wall",
                 ratio(static_cast<double>(probe.server.cpu_ns),
                       static_cast<double>(probe.server.wall_ns)));
  for (const char* key :
       {"net.up_bytes", "net.down_bytes", "net.up_frames", "net.down_frames",
        "net.mirror.up_bytes", "net.mirror.down_bytes", "net.mirror.up_frames",
        "net.mirror.down_frames"}) {
    m.emplace_back(key, static_cast<double>(find_count(c, key)));
  }
  for (std::size_t i = 0; i < proto::kMessageTypeCount; ++i) {
    const std::string key =
        "net." +
        std::string(proto::to_string(static_cast<proto::MessageType>(i))) +
        "_bytes";
    m.emplace_back(key, static_cast<double>(find_count(c, key)));
  }
  m.emplace_back("net.wire.raw_bytes", delta_of("net.wire.raw_bytes"));
  m.emplace_back("net.wire.wire_bytes", delta_of("net.wire.wire_bytes"));
  m.emplace_back("rt.streams", static_cast<double>(find_count(c, "streams")));
  m.emplace_back("rt.stalls",
                 static_cast<double>(find_count(c, "stream_stalls")));
  m.emplace_back("rt.mem_highwater_bytes",
                 static_cast<double>(find_count(c, "stream_mem_highwater")));
  const double records = static_cast<double>(find_count(c, "server_records"));
  const double pump_us = static_cast<double>(probe.server.wall_ns) * us;
  m.emplace_back("server.pump_us", pump_us);
  m.emplace_back("server.records", records);
  m.emplace_back("server.us_per_record", ratio(pump_us, records));
  const BlockStore& store = s.server.store();
  m.emplace_back("server.store.unique_bytes",
                 static_cast<double>(store.unique_bytes()));
  m.emplace_back("server.store.logical_bytes",
                 static_cast<double>(store.logical_bytes()));
  m.emplace_back("server.store.dedup_ratio", store.dedup_ratio());
  m.emplace_back("server.store.chunks",
                 static_cast<double>(store.chunk_count()));
  const double mirror_us = static_cast<double>(probe.mirror.wall_ns) * us;
  const double forwards = static_cast<double>(find_count(c, "forwards"));
  m.emplace_back("mirror.tick_us", mirror_us);
  m.emplace_back("mirror.forwards", forwards);
  m.emplace_back("mirror.us_per_forward", ratio(mirror_us, forwards));
  double top = -1;
  for (const auto& [layer, self_us] : trace.layer_self_us) {
    m.emplace_back("layer." + layer + ".self_us", self_us);
    if (self_us > top) {
      top = self_us;
      r.largest_layer = layer;
    }
  }
  for (const char* name :
       {"intercept.create", "intercept.close", "intercept.write",
        "intercept.truncate", "intercept.rename", "intercept.unlink",
        "client.enqueue", "client.delta", "client.upload_batch",
        "client.upload", "client.wire_encode", "client.ack",
        "client.apply_forward", "client.recon_round", "server.apply",
        "server.apply_group", "server.recon"}) {
    const auto it = trace.span_self_us.find(name);
    m.emplace_back(std::string("span.") + name + ".self_us",
                   it == trace.span_self_us.end() ? 0.0 : it->second);
  }
  m.emplace_back("trace.events", static_cast<double>(trace.events));
  const char* const sides[] = {"client", "server", "mirror"};
  const double cpu_s[] = {r.client_cpu_s, r.server_cpu_s, r.mirror_cpu_s};
  for (std::size_t i = 0; i < 3; ++i) {
    const std::string prefix = std::string("model.") + sides[i];
    m.emplace_back(prefix + ".ticks", static_cast<double>(r.cost[i].ticks));
    m.emplace_back(prefix + ".us_per_tick",
                   ratio(cpu_s[i] * 1e6, static_cast<double>(r.cost[i].ticks)));
  }
  if (options.keep_trace) r.chrome_json = obs->tracer.to_chrome_json();
  return r;
}

// ---------------------------------------------------------------------------
// Statistics and output
// ---------------------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile of `v` (0 < q <= 1).
double percentile(std::vector<std::uint32_t> v, double q) {
  if (v.empty()) return 0;
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t k = std::clamp<std::size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string quote(std::string_view s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += quote(metrics[i].name) + ": {\"value\": " + num(metrics[i].value) +
           ", \"unit\": " + quote(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string unit_of(std::string_view name) {
  auto ends_with = [&](std::string_view suffix) {
    return name.size() >= suffix.size() &&
           name.substr(name.size() - suffix.size()) == suffix;
  };
  if (ends_with("_us")) return "us";
  if (ends_with("_bytes")) return "bytes";
  if (ends_with("ratio") || ends_with("_per_wall") || ends_with("overhead")) {
    return "ratio";
  }
  if (ends_with("us_per_record") || ends_with("us_per_forward") ||
      ends_with("us_per_tick")) {
    return "us";
  }
  return "count";
}

/// The untraced passes the end-to-end metrics are taken from: all but the
/// warm-up pass, unless it is the only one.
std::vector<const PassResult*> measured(const std::vector<PassResult>& passes) {
  std::vector<const PassResult*> out;
  for (const PassResult& p : passes) {
    if (!p.traced && !p.warmup) out.push_back(&p);
  }
  if (out.empty()) {
    for (const PassResult& p : passes) {
      if (!p.traced) out.push_back(&p);
    }
  }
  return out;
}

/// The end-to-end metrics, as medians over the measured untraced passes.
std::vector<Metric> end_to_end(const std::vector<PassResult>& passes) {
  std::vector<double> setup, rate, ccpu, scpu, mcpu, tue, mtue, rss;
  std::vector<std::uint32_t> latency;
  for (const PassResult* pass : measured(passes)) {
    const PassResult& p = *pass;
    setup.push_back(p.setup_s);
    rate.push_back(p.sync_mb_s());
    ccpu.push_back(p.client_cpu_s);
    scpu.push_back(p.server_cpu_s);
    mcpu.push_back(p.mirror_cpu_s);
    const double upd = static_cast<double>(p.update_bytes);
    tue.push_back(static_cast<double>(find_count(p.counts, "net.up_bytes") +
                                      find_count(p.counts, "net.down_bytes")) /
                  upd);
    mtue.push_back(
        static_cast<double>(find_count(p.counts, "net.mirror.up_bytes") +
                            find_count(p.counts, "net.mirror.down_bytes")) /
        upd);
    rss.push_back(p.peak_rss_mb);
    latency.insert(latency.end(), p.app_latency_ns.begin(),
                   p.app_latency_ns.end());
  }
  return {
      {"setup_s", median(setup), "s"},
      {"sync_mb_s", median(rate), "MB/s"},
      {"client_cpu_s", median(ccpu), "s"},
      {"server_cpu_s", median(scpu), "s"},
      {"mirror_cpu_s", median(mcpu), "s"},
      {"app_op_p50_us", percentile(latency, 0.50) / 1e3, "us"},
      {"app_op_p99_us", percentile(latency, 0.99) / 1e3, "us"},
      {"tue", median(tue), "ratio"},
      {"mirror_tue", median(mtue), "ratio"},
      {"peak_rss_mb", median(rss), "MB"},
  };
}

/// Per-layer metrics as medians over the traced passes, plus the tracing
/// overhead (traced over untraced sync_mb_s).
std::vector<Metric> per_layer(const std::vector<PassResult>& passes) {
  std::map<std::string, std::vector<double>> values;
  std::vector<std::string> order;
  std::vector<double> traced_rate, plain_rate;
  for (const PassResult* p : measured(passes)) {
    plain_rate.push_back(p->sync_mb_s());
  }
  for (const PassResult& p : passes) {
    if (p.traced) traced_rate.push_back(p.sync_mb_s());
    for (const auto& [name, value] : p.layer) {
      if (!values.contains(name)) order.push_back(name);
      values[name].push_back(value);
    }
  }
  std::vector<Metric> out;
  for (const std::string& name : order) {
    out.push_back({name, median(values[name]), unit_of(name)});
  }
  out.push_back({"trace.overhead",
                 ratio(median(traced_rate), median(plain_rate)), "ratio"});
  return out;
}

// ---------------------------------------------------------------------------
// Layer-coverage self-check
// ---------------------------------------------------------------------------

double layer_value(const PassResult& p, std::string_view name) {
  for (const auto& [key, value] : p.layer) {
    if (key == name) return value;
  }
  throw std::logic_error("no per-layer metric " + std::string(name));
}

struct Check {
  std::string what;
  bool ok;
};

/// Runs a smoke size of the workload, untraced and traced, and checks that
/// each layer works where it is meant to and is bypassed where predicted.
/// Also checks that tracing changes no count.
std::vector<Check> self_check(const Spec& spec, std::uint64_t seed,
                              const RssSampler& rss) {
  std::vector<Check> checks;
  const PassResult plain = run_pass(spec, seed, {.smoke = true}, rss);
  const PassResult traced =
      run_pass(spec, seed, {.smoke = true, .traced = true}, rss);
  auto expect = [&](std::string what, bool ok) {
    checks.push_back({std::move(what), ok});
  };
  expect("untraced pass converges: " + plain.error, plain.error.empty());
  expect("traced pass converges: " + traced.error, traced.error.empty());
  const std::string mismatch =
      count_mismatch(plain, traced, spec.client.wire_compression);
  expect("traced and untraced counts agree" + mismatch, mismatch.empty());
  auto v = [&](std::string_view name) { return layer_value(traced, name); };
  // A single lane reads slightly above 1.0 because each call's CPU reads
  // bracket its wall reads; overlapping lanes read well above.
  const bool par_above_one = v("par.delta_cpu_per_wall") > 1.05 ||
                             v("par.pump_cpu_per_wall") > 1.05;
  const std::string par_ratios = ": delta " +
                                 num(v("par.delta_cpu_per_wall")) +
                                 ", pump " + num(v("par.pump_cpu_per_wall"));
  expect("server applies records", v("server.records") > 0);
  expect("mirror applies forwards", v("mirror.forwards") > 0);
  expect("core write hook runs", v("core.hook.write.calls") > 0);
  if (spec.name == "word_txn") {
    expect("relation table triggers deltas", v("rsyncx.deltas") > 0);
    expect("write-node merging runs", v("core.queue.write_merges") > 0);
    expect("signature cache is consulted",
           find_count(traced.counts, "sigcache_hits") +
                   find_count(traced.counts, "sigcache_misses") >
               0);
    expect("client reads its local disk", v("vfs.local_us") > 0);
    expect("par lanes overlap (cpu/wall > 1.05)" + par_ratios,
           par_above_one);
  } else {
    expect("par lanes idle (cpu/wall <= 1.05)" + par_ratios, !par_above_one);
  }
  if (spec.name == "wechat_inplace") {
    expect("no deltas run", v("rsyncx.deltas") == 0);
    expect("checksum store verifies reads",
           v("core.hook.verify_read.calls") > 0);
  }
  if (spec.name == "import_move") {
    expect("camera files stream", v("rt.streams") > 0);
    expect("library re-exports reconcile", v("rsyncx.recon.sessions") > 0);
    expect("client reads its local disk", v("vfs.local_us") > 0);
    expect("relation table stays idle", v("core.relation.hits") == 0);
    expect("write merging stays idle", v("core.queue.write_merges") == 0);
  }
  return checks;
}

// ---------------------------------------------------------------------------
// main
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string out_dir = ".";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = value != "0";
    } else if (flag == "--out-dir") {
      a.out_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  return a;
}

int run(const Args& args) {
  std::optional<Spec> spec;
  for (Spec& s : all_specs()) {
    if (s.name == args.workload) spec = std::move(s);
  }
  if (!spec) throw std::invalid_argument("unknown workload " + args.workload);
  const RssSampler rss;
  const Watchdog watchdog;

  const std::int64_t check_start = wall_ns();
  const std::vector<Check> checks = self_check(*spec, args.seed, rss);
  bool checks_ok = true;
  for (const Check& c : checks) {
    if (!c.ok) {
      checks_ok = false;
      std::printf("self-check FAILED: %s\n", c.what.c_str());
    }
  }
  std::printf("self-check: %zu checks, %s (%.2f s)\n", checks.size(),
              checks_ok ? "all passed" : "FAILED",
              static_cast<double>(wall_ns() - check_start) / 1e9);

  // Passes until the time budget is spent: untraced only, or alternating
  // untraced/traced.  A pass starts only if it should finish in budget.
  std::vector<PassResult> passes;
  const std::int64_t start = wall_ns();
  double longest = 0;
  const std::size_t min_passes = args.trace ? 2 : 1;
  while (true) {
    const double elapsed = static_cast<double>(wall_ns() - start) / 1e9;
    if (passes.size() >= min_passes && elapsed + longest > args.seconds) break;
    const bool traced = args.trace && passes.size() % 2 == 1;
    const std::int64_t t0 = wall_ns();
    passes.push_back(run_pass(
        *spec, args.seed,
        {.traced = traced, .keep_trace = traced && passes.size() == 1}, rss));
    passes.back().warmup = passes.size() == 1;
    longest = std::max(longest, static_cast<double>(wall_ns() - t0) / 1e9);
    const PassResult& p = passes.back();
    std::printf("pass %zu%s: setup %.3f s, measured %.3f s, %.3f MB/s%s%s\n",
                passes.size(),
                p.traced ? " (traced)" : (p.warmup ? " (warm-up)" : ""),
                p.setup_s,
                p.measured_s, p.sync_mb_s(), p.error.empty() ? "" : ", ERROR: ",
                p.error.c_str());
  }

  // Correctness gate: every pass converged with no failure, and every pass
  // repeated the counts of the first pass and of the first traced pass.
  bool correct = checks_ok;
  const PassResult* first_traced = nullptr;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const PassResult& p : passes) {
    attempted += p.attempted;
    failed += p.failed;
    if (!p.error.empty()) correct = false;
    if (p.traced && first_traced == nullptr) first_traced = &p;
    for (const PassResult* ref : {static_cast<const PassResult*>(&passes.front()), first_traced}) {
      if (ref == nullptr) continue;
      const std::string mismatch =
          count_mismatch(*ref, p, spec->client.wire_compression);
      if (!mismatch.empty()) {
        correct = false;
        std::printf("count mismatch%s\n", mismatch.c_str());
      }
    }
  }

  const std::vector<Metric> e2e = end_to_end(passes);
  const std::vector<Metric> layers = per_layer(passes);
  const PassResult* traced_pass = first_traced;

  // Human-readable report.
  std::size_t samples = 0;
  for (const PassResult* p : measured(passes)) {
    samples += p->app_latency_ns.size();
  }
  std::printf("\n%s seed %llu: %zu passes, %zu app-call latency samples\n",
              spec->name.c_str(), static_cast<unsigned long long>(args.seed),
              passes.size(), samples);
  for (const Metric& m : e2e) {
    std::printf("  %-16s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const PassResult& first = *measured(passes).front();
  const char* const sides[] = {"client", "server", "mirror"};
  const double cpu_s[] = {first.client_cpu_s, first.server_cpu_s,
                          first.mirror_cpu_s};
  std::printf("\nCostMeter model next to measured CPU (first measured pass):\n");
  std::printf("  %-14s %14s %14s %14s\n", "", sides[0], sides[1], sides[2]);
  for (std::size_t k = 0; k < kCostKindCount; ++k) {
    std::printf("  %-14s", std::string(to_string(static_cast<CostKind>(k))).c_str());
    for (const CostSnapshot& snap : first.cost) {
      std::printf(" %14llu",
                  static_cast<unsigned long long>(snap.units_by_kind[k]));
    }
    std::printf("\n");
  }
  std::printf("  %-14s", "total units");
  for (const CostSnapshot& snap : first.cost) {
    std::printf(" %14llu", static_cast<unsigned long long>(snap.total_units));
  }
  std::printf("\n  %-14s", "model ticks");
  for (const CostSnapshot& snap : first.cost) {
    std::printf(" %14llu", static_cast<unsigned long long>(snap.ticks));
  }
  std::printf("\n  %-14s", "measured cpu s");
  for (const double v : cpu_s) std::printf(" %14.4f", v);
  std::printf("\n  %-14s", "us per tick");
  for (std::size_t i = 0; i < 3; ++i) {
    std::printf(" %14.1f", ratio(cpu_s[i] * 1e6,
                                 static_cast<double>(first.cost[i].ticks)));
  }
  std::printf("\n");
  if (traced_pass != nullptr) {
    std::printf("\nlargest self-time layer (traced pass): %s\n",
                traced_pass->largest_layer.c_str());
  }

  // Full result document.
  std::string doc = "{\n";
  doc += "  \"workload\": " + quote(spec->name) + ",\n";
  doc += "  \"seed\": " + std::to_string(args.seed) + ",\n";
  doc += "  \"trace\": " + std::string(args.trace ? "true" : "false") + ",\n";
  doc += "  \"build\": {\"compiler\": " +
         quote(std::string(SYNCBENCH_CXX_ID) + " " + SYNCBENCH_CXX_VERSION) +
         ", \"build_type\": " + quote(SYNCBENCH_BUILD_TYPE) +
         ", \"dcfs_chk\": " + (kDcfsChk ? "true" : "false") +
         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         "},\n";
  doc += "  \"correct\": " + std::string(correct ? "true" : "false") + ",\n";
  doc += "  \"self_check\": [";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    doc += (i > 0 ? ", " : "") + std::string("{\"check\": ") +
           quote(checks[i].what) +
           ", \"ok\": " + (checks[i].ok ? "true" : "false") + "}";
  }
  doc += "],\n";
  doc += "  \"end_to_end\": " + metrics_json(e2e) + ",\n";
  doc += "  \"per_layer\": " + metrics_json(layers) + ",\n";
  doc += "  \"largest_self_layer\": " +
         quote(traced_pass ? traced_pass->largest_layer : "") + ",\n";
  doc += "  \"cost_model\": {";
  for (std::size_t i = 0; i < 3; ++i) {
    doc += (i > 0 ? ", " : "") + quote(sides[i]) + ": {\"cpu_s\": " +
           num(cpu_s[i]) + ", \"ticks\": " +
           std::to_string(first.cost[i].ticks) + ", \"us_per_tick\": " +
           num(ratio(cpu_s[i] * 1e6,
                     static_cast<double>(first.cost[i].ticks))) +
           ", \"units\": {";
    for (std::size_t k = 0; k < kCostKindCount; ++k) {
      doc += (k > 0 ? ", " : "") +
             quote(to_string(static_cast<CostKind>(k))) + ": " +
             std::to_string(first.cost[i].units_by_kind[k]);
    }
    doc += "}}";
  }
  doc += "},\n  \"passes\": [";
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const PassResult& p = passes[i];
    doc += std::string(i > 0 ? ",\n    " : "\n    ") + "{\"traced\": " +
           (p.traced ? "true" : "false") + ", \"warmup\": " +
           (p.warmup ? "true" : "false") + ", \"error\": " + quote(p.error) +
           ", \"setup_s\": " + num(p.setup_s) + ", \"measured_s\": " +
           num(p.measured_s) + ", \"sync_mb_s\": " + num(p.sync_mb_s()) +
           ", \"client_cpu_s\": " + num(p.client_cpu_s) +
           ", \"server_cpu_s\": " + num(p.server_cpu_s) +
           ", \"mirror_cpu_s\": " + num(p.mirror_cpu_s) +
           ", \"peak_rss_mb\": " + num(p.peak_rss_mb) + ", \"counts\": {";
    for (std::size_t k = 0; k < p.counts.size(); ++k) {
      doc += (k > 0 ? ", " : "") + quote(p.counts[k].first) + ": " +
             std::to_string(p.counts[k].second);
    }
    doc += "}}";
  }
  doc += "\n  ]\n}\n";
  const std::string stem = args.out_dir + "/" + spec->name + "-seed" +
                           std::to_string(args.seed) +
                           (args.trace ? "-traced" : "");
  std::ofstream(stem + ".json") << doc;
  if (traced_pass != nullptr) {
    std::ofstream(stem + ".chrome.json") << traced_pass->chrome_json;
    std::printf("trace written to %s.chrome.json\n", stem.c_str());
  }
  std::printf("result written to %s.json\n", stem.c_str());

  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed),
      metrics_json(args.trace ? layers : e2e).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace syncbench

int main(int argc, char** argv) {
  try {
    return syncbench::run(syncbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sync_bench: %s\n", e.what());
    return 2;
  }
}
