// Bench-owned traces.  word_txn replays dcfs::WordWorkload unchanged; the
// two traces here cover what the library's workloads cannot issue without
// a failing application call.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "trace/workload.h"
#include "trace/workloads.h"

namespace syncbench {

using namespace dcfs;

/// Writes `data` at `offset` in `chunk`-sized application writes.
inline void write_chunked(FileSystem& fs, FileHandle handle,
                          std::uint64_t offset, ByteSpan data,
                          std::uint64_t chunk) {
  for (std::uint64_t pos = 0; pos < data.size(); pos += chunk) {
    const std::uint64_t n = std::min<std::uint64_t>(chunk, data.size() - pos);
    fs.write(handle, offset + pos, data.subspan(pos, n));
  }
}

/// The WeChat SQLite trace (Fig. 3, first row) with the same step sequence
/// and random draws as dcfs::WeChatWorkload, except that the rollback
/// journal exists from set-up on and each transaction opens it.
/// dcfs::WeChatWorkload calls the exclusive FileSystem::create on it every
/// update and falls back to open, so all but its first create fail.
class WeChatTrace final : public Workload {
 public:
  explicit WeChatTrace(WeChatParams params)
      : params_(std::move(params)), rng_(params_.seed) {}

  [[nodiscard]] std::string_view name() const override { return "wechat"; }
  [[nodiscard]] TimePoint next_time() const override { return next_time_; }
  [[nodiscard]] std::uint64_t update_bytes() const override {
    return update_bytes_;
  }

  void setup(FileSystem& fs) override {
    pages_ = params_.initial_bytes / params_.page_size;
    grow_per_update_ = std::max<std::uint64_t>(
        1, (params_.final_bytes - params_.initial_bytes) /
               (std::uint64_t{params_.updates} * params_.page_size));
    // SQLite's truncate journal mode leaves an empty journal behind after
    // the first transaction; the trace starts from that state.
    if (Result<FileHandle> journal = fs.create(params_.journal)) {
      fs.close(*journal);
    }
    Result<FileHandle> handle = fs.create(params_.db);
    if (!handle) return;
    Rng content_rng(params_.seed ^ 0x5EED);
    const Bytes content = content_rng.bytes(pages_ * params_.page_size);
    write_chunked(fs, *handle, 0, content, 1ull << 20);
    fs.close(*handle);
  }

  bool step(FileSystem& fs) override {
    const std::uint32_t ps = params_.page_size;
    std::vector<std::uint64_t> dirty_pages{0};
    for (std::uint32_t i = 1; i < params_.inplace_pages; ++i) {
      dirty_pages.push_back(
          1 + rng_.next_below(std::max<std::uint64_t>(1, pages_ - 1)));
    }

    // 1-2: the journal receives copies of the about-to-change pages.
    Result<FileHandle> journal = fs.open(params_.journal);
    if (journal) {
      fs.write(*journal, 0, rng_.bytes(512));
      std::uint64_t joff = 512;
      if (Result<FileHandle> db = fs.open(params_.db)) {
        for (const std::uint64_t page : dirty_pages) {
          if (Result<Bytes> old_page = fs.read(*db, page * ps, ps)) {
            fs.write(*journal, joff, *old_page);
            joff += old_page->size();
          }
        }
        fs.close(*db);
      }
    }

    // 3: in-place page updates plus appended pages on the DB.
    if (Result<FileHandle> db = fs.open(params_.db)) {
      const Bytes header_patch = rng_.bytes(24);
      fs.write(*db, 24, header_patch);
      update_bytes_ += header_patch.size();
      for (std::size_t i = 1; i < dirty_pages.size(); ++i) {
        const std::uint64_t page = dirty_pages[i];
        Result<Bytes> page_content = fs.read(*db, page * ps, ps);
        Bytes new_page =
            page_content ? std::move(*page_content) : Bytes(ps, 0);
        new_page.resize(ps, 0);
        const std::uint64_t at = rng_.next_below(ps - 256);
        const Bytes record = rng_.bytes(200);
        std::copy(record.begin(), record.end(),
                  new_page.begin() + static_cast<std::ptrdiff_t>(at));
        fs.write(*db, page * ps, new_page);
        update_bytes_ += new_page.size();
      }
      for (std::uint64_t i = 0; i < grow_per_update_; ++i) {
        fs.write(*db, pages_ * ps, rng_.bytes(ps));
        ++pages_;
        update_bytes_ += ps;
      }
      fs.close(*db);
    }

    // 4: commit truncates the journal to zero.
    if (journal) fs.close(*journal);
    fs.truncate(params_.journal, 0);

    if (++done_ >= params_.updates) return false;
    next_time_ += params_.interval;
    return true;
  }

 private:
  WeChatParams params_;
  Rng rng_;
  std::uint64_t pages_ = 0;
  std::uint64_t grow_per_update_ = 1;
  std::uint32_t done_ = 0;
  std::uint64_t update_bytes_ = 0;
  TimePoint next_time_ = seconds(1);
};

struct ImportParams {
  std::string root = "/sync";
  /// Staging area outside the sync root (an export or camera-import dir).
  std::string staging = "/import";
  std::uint32_t library_files = 6;
  std::uint64_t library_min_bytes = 1536 * 1024;
  std::uint64_t library_max_bytes = 3ull << 20;
  std::uint32_t imports = 100;  ///< alternating camera files and re-exports
  std::uint64_t camera_min_bytes = 512 * 1024;
  std::uint64_t camera_max_bytes = 900 * 1024;
  std::uint64_t insert_bytes = 8 * 1024;  ///< text inserted per re-export
  std::uint32_t patches = 4;              ///< small in-place edits
  std::uint64_t patch_bytes = 512;
  std::uint64_t io_chunk = 64 * 1024;
  Duration interval = seconds(2);
  std::uint64_t seed = 6;
};

/// Files moved into the sync root from outside it: new incompressible
/// camera files (streamed uploads) alternate with re-exported edits of
/// compressible library files that already sync (reconciled uploads).
/// Every file is written in the staging directory and renamed into place.
/// File sizes are spread evenly over their ranges, the same for every seed;
/// the seed draws content and edit positions.
class ImportMoveTrace final : public Workload {
 public:
  explicit ImportMoveTrace(ImportParams params)
      : params_(std::move(params)), rng_(params_.seed) {}

  [[nodiscard]] std::string_view name() const override { return "import"; }
  [[nodiscard]] TimePoint next_time() const override { return next_time_; }
  [[nodiscard]] std::uint64_t update_bytes() const override {
    return update_bytes_;
  }

  void setup(FileSystem& fs) override {
    fs.mkdir(params_.staging);
    fs.mkdir(params_.root + "/library");
    fs.mkdir(params_.root + "/camera");
    for (std::uint32_t i = 0; i < params_.library_files; ++i) {
      const Bytes content = rng_.text(spread(
          params_.library_min_bytes, params_.library_max_bytes, i,
          params_.library_files));
      if (Result<FileHandle> handle = fs.create(library_path(i))) {
        write_chunked(fs, *handle, 0, content, params_.io_chunk);
        fs.close(*handle);
      }
    }
  }

  bool step(FileSystem& fs) override {
    if (done_ % 2 == 0) {
      import_camera_file(fs);
    } else {
      reexport_library_file(fs);
    }
    if (++done_ >= params_.imports) return false;
    next_time_ += params_.interval;
    return true;
  }

 private:
  /// The i-th of n sizes spaced evenly over [lo, hi].
  static std::uint64_t spread(std::uint64_t lo, std::uint64_t hi,
                              std::uint64_t i, std::uint64_t n) {
    return n > 1 ? lo + (hi - lo) * i / (n - 1) : lo;
  }

  [[nodiscard]] std::string library_path(std::uint32_t i) const {
    return params_.root + "/library/doc" + std::to_string(i) + ".txt";
  }

  void import_camera_file(FileSystem& fs) {
    const std::string name = "IMG_" + std::to_string(done_) + ".raw";
    const std::string staged = params_.staging + "/" + name;
    constexpr std::uint64_t kSizeSteps = 8;
    const Bytes content = rng_.bytes(
        spread(params_.camera_min_bytes, params_.camera_max_bytes,
               (done_ / 2) % kSizeSteps, kSizeSteps));
    if (Result<FileHandle> handle = fs.create(staged)) {
      write_chunked(fs, *handle, 0, content, params_.io_chunk);
      fs.close(*handle);
    }
    fs.rename(staged, params_.root + "/camera/" + name);
    update_bytes_ += content.size();
  }

  void reexport_library_file(FileSystem& fs) {
    const std::string target =
        library_path(static_cast<std::uint32_t>(done_ / 2) %
                     params_.library_files);
    // The exporter reads the current version...
    Bytes content;
    if (Result<FileHandle> handle = fs.open(target)) {
      const Result<FileStat> st = fs.stat(target);
      const std::uint64_t size = st ? st->size : 0;
      for (std::uint64_t pos = 0; pos < size; pos += params_.io_chunk) {
        Result<Bytes> piece = fs.read(*handle, pos, params_.io_chunk);
        if (!piece) break;
        content.insert(content.end(), piece->begin(), piece->end());
      }
      fs.close(*handle);
    }
    // ...edits it (one insertion that shifts the tail, a few patches)...
    const Bytes inserted = rng_.text(params_.insert_bytes);
    const std::uint64_t at = rng_.next_below(content.size() + 1);
    content.insert(content.begin() + static_cast<std::ptrdiff_t>(at),
                   inserted.begin(), inserted.end());
    update_bytes_ += inserted.size();
    for (std::uint32_t i = 0; i < params_.patches; ++i) {
      const Bytes patch = rng_.text(params_.patch_bytes);
      const std::uint64_t pos =
          rng_.next_below(content.size() - patch.size() + 1);
      std::copy(patch.begin(), patch.end(),
                content.begin() + static_cast<std::ptrdiff_t>(pos));
      update_bytes_ += patch.size();
    }
    // ...writes the new version in the staging dir and moves it over.
    const std::string staged = params_.staging + "/export.tmp";
    if (Result<FileHandle> handle = fs.create(staged)) {
      write_chunked(fs, *handle, 0, content, params_.io_chunk);
      fs.close(*handle);
    }
    fs.rename(staged, target);
  }

  ImportParams params_;
  Rng rng_;
  std::uint32_t done_ = 0;
  std::uint64_t update_bytes_ = 0;
  TimePoint next_time_ = seconds(1);
};

}  // namespace syncbench
