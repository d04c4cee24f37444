// Timing decorators the sync benchmark wraps around the DeltaCFS stack.
//
// Every layer is timed from outside, through the public seams the stack is
// built from:
//
//   workload -> AppFs -> InterceptingFs -> TimedSink -> DeltaCfsClient
//                              |                             |
//                            MemFs  <-------- LocalFs <------+
//
// AppFs times each application call as the app sees it.  TimedSink (an
// OpSink) times the client's hooks and LocalFs (a FileSystem) the client's
// own calls on its local disk.  The untraced pass times whole app calls
// only; hooks and local calls are timed, and spans recorded, only when the
// probe carries a tracer.
#pragma once

#include <time.h>
#include <unistd.h>
#include <fcntl.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/client.h"
#include "obs/trace.h"
#include "vfs/fs.h"

namespace syncbench {

using namespace dcfs;

inline std::int64_t wall_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Process CPU (every thread, so worker lanes count).
inline std::int64_t cpu_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Wall and CPU time spent inside one kind of call, and how many calls.
struct Timed {
  std::int64_t wall_ns = 0;
  std::int64_t cpu_ns = 0;
  std::uint64_t calls = 0;

  void add(std::int64_t wall, std::int64_t cpu) noexcept {
    wall_ns += wall;
    cpu_ns += cpu;
    ++calls;
  }
};

/// Resident set size read from /proc/self/statm (one pread per sample).
class RssSampler {
 public:
  RssSampler() : fd_(::open("/proc/self/statm", O_RDONLY | O_CLOEXEC)) {}
  ~RssSampler() {
    if (fd_ >= 0) ::close(fd_);
  }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  [[nodiscard]] std::uint64_t bytes() const noexcept {
    if (fd_ < 0) return 0;
    char buf[128];
    const ssize_t n = ::pread(fd_, buf, sizeof(buf) - 1, 0);
    if (n <= 0) return 0;
    buf[n] = '\0';
    unsigned long long size = 0;
    unsigned long long resident = 0;
    if (std::sscanf(buf, "%llu %llu", &size, &resident) != 2) return 0;
    return resident * static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
  }

 private:
  int fd_;
};

/// Client hooks grouped the way the per-layer metrics report them.
enum class Hook : std::uint8_t {
  write,
  close,
  rename,       ///< before_rename + note_rename
  truncate,
  unlink,       ///< intercept_unlink + note_unlink
  verify_read,
  other,        ///< create, link, mkdir, rmdir, fsync
  kCount,
};
inline constexpr std::size_t kHookCount = static_cast<std::size_t>(Hook::kCount);
inline constexpr std::array<const char*, kHookCount> kHookNames = {
    "write", "close", "rename", "truncate", "unlink", "verify_read", "other"};

/// Everything one pass measures.  Owned by the pass; the decorators hold a
/// pointer to it.
struct Probe {
  /// Non-null only in traced passes; the same tracer the program's own
  /// spans go to, so bench spans and program spans nest on one timeline.
  obs::Tracer* tracer = nullptr;
  const RssSampler* rss = nullptr;
  /// Set for the measured phase: RSS is sampled after every whole call.
  bool measuring = false;
  std::uint64_t rss_peak = 0;

  // Whole calls (every pass).
  Timed app;
  std::vector<std::uint32_t> app_latency_ns;
  std::uint64_t app_errors = 0;
  Timed client_tick;  ///< the editing client's tick/flush
  Timed server;  ///< server.pump
  Timed mirror;  ///< the mirror's tick

  // Layer internals (traced passes only).
  std::array<Timed, kHookCount> hooks{};
  Timed delta;  ///< hook calls during which deltas_triggered() advanced
  std::uint64_t deltas = 0;
  Timed local;
  std::uint64_t local_bytes = 0;

  /// Failed mutating calls on the mirror's disk: forwards it rejected.
  std::uint64_t mirror_rejects = 0;

  struct Names {
    obs::NameId cat = 0;
    obs::NameId pass = 0, setup = 0, step = 0, tick = 0, drain = 0;
    obs::NameId client_tick = 0, client_flush = 0, server_pump = 0,
                mirror_tick = 0;
    std::array<obs::NameId, 14> app{};
    std::array<obs::NameId, 14> local{};
    std::array<obs::NameId, 11> hook{};
  } names;

  void sample_rss() noexcept {
    if (!measuring || rss == nullptr) return;
    const std::uint64_t now = rss->bytes();
    if (now > rss_peak) rss_peak = now;
  }

  /// Clears everything measured so far (called after set-up).
  void reset() {
    Probe fresh;
    fresh.tracer = tracer;
    fresh.rss = rss;
    fresh.names = names;
    fresh.app_latency_ns.reserve(app_latency_ns.capacity());
    *this = std::move(fresh);
  }
};

/// FileSystem ops, indexing Names::app / Names::local.
enum FsOp : std::uint8_t {
  op_create, op_open, op_close, op_read, op_write, op_truncate, op_rename,
  op_link, op_unlink, op_mkdir, op_rmdir, op_stat, op_list_dir, op_fsync,
};
inline constexpr std::array<const char*, 14> kFsOpNames = {
    "create", "open",   "close", "read",  "write", "truncate", "rename",
    "link",   "unlink", "mkdir", "rmdir", "stat",  "list_dir", "fsync"};

/// Hook span names, indexing Names::hook.
enum HookSpan : std::uint8_t {
  hs_create, hs_write, hs_truncate, hs_close, hs_before_rename, hs_rename,
  hs_link, hs_intercept_unlink, hs_unlink, hs_mkdir_rmdir_fsync,
  hs_verify_read,
};
inline constexpr std::array<const char*, 11> kHookSpanNames = {
    "create", "write", "truncate",         "close",  "before_rename",
    "rename", "link",  "intercept_unlink", "unlink", "dir_or_fsync",
    "verify_read"};

inline void intern_names(obs::Tracer& tracer, Probe::Names& n) {
  n.cat = tracer.intern("bench");
  n.pass = tracer.intern("bench.pass");
  n.setup = tracer.intern("bench.setup");
  n.step = tracer.intern("bench.step");
  n.tick = tracer.intern("bench.tick");
  n.drain = tracer.intern("bench.drain");
  n.client_tick = tracer.intern("bench.client_tick");
  n.client_flush = tracer.intern("bench.client_flush");
  n.server_pump = tracer.intern("bench.server_pump");
  n.mirror_tick = tracer.intern("bench.mirror_tick");
  for (std::size_t i = 0; i < kFsOpNames.size(); ++i) {
    n.app[i] = tracer.intern(std::string("bench.app.") + kFsOpNames[i]);
    n.local[i] = tracer.intern(std::string("bench.local.") + kFsOpNames[i]);
  }
  for (std::size_t i = 0; i < kHookSpanNames.size(); ++i) {
    n.hook[i] = tracer.intern(std::string("bench.hook.") + kHookSpanNames[i]);
  }
}

/// OpSink decorator between the interceptor and the client.
class TimedSink final : public OpSink {
 public:
  TimedSink(DeltaCfsClient& client, Probe& probe)
      : client_(client), probe_(&probe) {}

  void note_create(std::string_view path) override {
    hook(Hook::other, hs_create, [&] { client_.note_create(path); });
  }
  void note_write(std::string_view path, std::uint64_t offset, ByteSpan data,
                  ByteSpan overwritten, std::uint64_t size_before) override {
    hook(Hook::write, hs_write, [&] {
      client_.note_write(path, offset, data, overwritten, size_before);
    });
  }
  void note_truncate(std::string_view path, std::uint64_t new_size,
                     std::uint64_t old_size, ByteSpan cut_tail) override {
    hook(Hook::truncate, hs_truncate, [&] {
      client_.note_truncate(path, new_size, old_size, cut_tail);
    });
  }
  void note_close(std::string_view path, bool wrote) override {
    hook(Hook::close, hs_close, [&] { client_.note_close(path, wrote); });
  }
  void before_rename(std::string_view from, std::string_view to,
                     bool dst_exists) override {
    hook(Hook::rename, hs_before_rename,
         [&] { client_.before_rename(from, to, dst_exists); });
  }
  void note_rename(std::string_view from, std::string_view to,
                   bool dst_existed) override {
    hook(Hook::rename, hs_rename,
         [&] { client_.note_rename(from, to, dst_existed); });
  }
  void note_link(std::string_view from, std::string_view to) override {
    hook(Hook::other, hs_link, [&] { client_.note_link(from, to); });
  }
  bool intercept_unlink(std::string_view path) override {
    return hook(Hook::unlink, hs_intercept_unlink,
                [&] { return client_.intercept_unlink(path); });
  }
  void note_unlink(std::string_view path) override {
    hook(Hook::unlink, hs_unlink, [&] { client_.note_unlink(path); });
  }
  void note_mkdir(std::string_view path) override {
    hook(Hook::other, hs_mkdir_rmdir_fsync, [&] { client_.note_mkdir(path); });
  }
  void note_rmdir(std::string_view path) override {
    hook(Hook::other, hs_mkdir_rmdir_fsync, [&] { client_.note_rmdir(path); });
  }
  void note_fsync(std::string_view path) override {
    hook(Hook::other, hs_mkdir_rmdir_fsync, [&] { client_.note_fsync(path); });
  }
  Status verify_read(std::string_view path, std::uint64_t offset,
                     ByteSpan data) override {
    return hook(Hook::verify_read, hs_verify_read,
                [&] { return client_.verify_read(path, offset, data); });
  }

 private:
  template <class F>
  std::invoke_result_t<F&> hook(Hook group, HookSpan name, F&& fn) {
    Probe& p = *probe_;
    if (p.tracer == nullptr) return fn();
    const std::uint64_t deltas_before = client_.deltas_triggered();
    const std::int64_t c0 = cpu_ns();
    const std::int64_t w0 = wall_ns();
    auto finish = [&] {
      const std::int64_t w1 = wall_ns();
      const std::int64_t c1 = cpu_ns();
      p.hooks[static_cast<std::size_t>(group)].add(w1 - w0, c1 - c0);
      const std::uint64_t deltas = client_.deltas_triggered() - deltas_before;
      if (deltas > 0) {
        p.delta.add(w1 - w0, c1 - c0);
        p.deltas += deltas;
      }
    };
    if constexpr (std::is_void_v<decltype(fn())>) {
      {
        obs::Span span(p.tracer, p.names.hook[name], p.names.cat);
        fn();
      }
      finish();
    } else {
      auto result = [&] {
        obs::Span span(p.tracer, p.names.hook[name], p.names.cat);
        return fn();
      }();
      finish();
      return result;
    }
  }

  DeltaCfsClient& client_;
  Probe* probe_;
};

/// A FileSystem decorator that hands every call on `inner` to `Policy`.
/// `Policy::call(op, bytes, fn)` runs `fn` (the inner call) and does its
/// bookkeeping around it; `bytes` is the payload a write carries.
template <class Policy>
class ForwardingFs final : public FileSystem {
 public:
  ForwardingFs(FileSystem& inner, Probe& probe)
      : inner_(inner), policy_{&probe} {}

  Result<FileHandle> create(std::string_view p) override {
    return on(op_create, [&] { return inner_.create(p); });
  }
  Result<FileHandle> open(std::string_view p) override {
    return on(op_open, [&] { return inner_.open(p); });
  }
  Status close(FileHandle h) override {
    return on(op_close, [&] { return inner_.close(h); });
  }
  Result<Bytes> read(FileHandle h, std::uint64_t off,
                     std::uint64_t size) override {
    return on(op_read, [&] { return inner_.read(h, off, size); });
  }
  Status write(FileHandle h, std::uint64_t off, ByteSpan data) override {
    return on(op_write, [&] { return inner_.write(h, off, data); },
              data.size());
  }
  Status truncate(std::string_view p, std::uint64_t size) override {
    return on(op_truncate, [&] { return inner_.truncate(p, size); });
  }
  Status rename(std::string_view a, std::string_view b) override {
    return on(op_rename, [&] { return inner_.rename(a, b); });
  }
  Status link(std::string_view a, std::string_view b) override {
    return on(op_link, [&] { return inner_.link(a, b); });
  }
  Status unlink(std::string_view p) override {
    return on(op_unlink, [&] { return inner_.unlink(p); });
  }
  Status mkdir(std::string_view p) override {
    return on(op_mkdir, [&] { return inner_.mkdir(p); });
  }
  Status rmdir(std::string_view p) override {
    return on(op_rmdir, [&] { return inner_.rmdir(p); });
  }
  Result<FileStat> stat(std::string_view p) const override {
    return on(op_stat, [&] { return inner_.stat(p); });
  }
  Result<std::vector<std::string>> list_dir(
      std::string_view p) const override {
    return on(op_list_dir, [&] { return inner_.list_dir(p); });
  }
  Status fsync(FileHandle h) override {
    return on(op_fsync, [&] { return inner_.fsync(h); });
  }

 private:
  template <class F>
  std::invoke_result_t<F&> on(FsOp op, F&& fn, std::uint64_t bytes = 0) const {
    return policy_.call(op, bytes, fn);
  }

  FileSystem& inner_;
  Policy policy_;
};

/// The application's view of the synced filesystem: times every call
/// through the interceptor (one latency sample per call).
struct AppTiming {
  Probe* probe;

  template <class F>
  std::invoke_result_t<F&> call(FsOp op, std::uint64_t, F& fn) const {
    Probe& p = *probe;
    // CPU reads bracket the wall reads so the latency sample excludes them.
    const std::int64_t c0 = cpu_ns();
    const std::int64_t w0 = wall_ns();
    auto result = [&] {
      obs::Span span(p.tracer, p.names.app[op], p.names.cat);
      return fn();
    }();
    const std::int64_t w1 = wall_ns();
    const std::int64_t c1 = cpu_ns();
    p.app.add(w1 - w0, c1 - c0);
    p.app_latency_ns.push_back(static_cast<std::uint32_t>(
        std::min<std::int64_t>(w1 - w0, UINT32_MAX)));
    if (!result.is_ok()) ++p.app_errors;
    p.sample_rss();
    return result;
  }
};

/// The editing client's local disk: times the client's own calls on it
/// (preserve copies, base reads, spill files) in traced passes.  The
/// interceptor reaches the same MemFs directly, so app calls are not
/// counted here.
struct LocalTiming {
  Probe* probe;

  template <class F>
  std::invoke_result_t<F&> call(FsOp op, std::uint64_t bytes, F& fn) const {
    Probe& p = *probe;
    if (p.tracer == nullptr) return fn();
    const std::int64_t w0 = wall_ns();
    auto result = [&] {
      obs::Span span(p.tracer, p.names.local[op], p.names.cat);
      return fn();
    }();
    p.local.add(wall_ns() - w0, 0);
    if constexpr (std::is_same_v<decltype(result), Result<Bytes>>) {
      if (result) bytes += result->size();
    }
    p.local_bytes += bytes;
    return result;
  }
};

/// The mirror's local disk: counts mutating calls that fail, i.e. forwarded
/// records the mirror could not apply.  Opens are not counted: applying a
/// write forward opens first and creates on failure.
struct RejectCount {
  Probe* probe;

  template <class F>
  std::invoke_result_t<F&> call(FsOp op, std::uint64_t, F& fn) const {
    auto result = fn();
    const bool lookup = op == op_open || op == op_stat || op == op_list_dir;
    if (!lookup && !result.is_ok()) ++probe->mirror_rejects;
    return result;
  }
};

using AppFs = ForwardingFs<AppTiming>;
using LocalFs = ForwardingFs<LocalTiming>;
using MirrorFs = ForwardingFs<RejectCount>;

}  // namespace syncbench
