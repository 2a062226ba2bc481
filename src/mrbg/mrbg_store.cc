#include "mrbg/mrbg_store.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <unordered_map>
#include <unordered_set>

#include "common/codec.h"
#include "common/logging.h"
#include "common/trace.h"
#include "io/env.h"
#include "io/fault_env.h"

namespace i2mr {
namespace {

constexpr uint32_t kManifestMagic = 0x4d4d4631;  // "MMF1"
constexpr char kManifestName[] = "MANIFEST";

// MANIFEST format: [u32 magic][u64 next_segment_id][u32 count]
// followed by count ([u64 id][u64 committed_length]) entries in logical
// scan order. A segment's physical file may be longer than its committed
// length (a dead tail grown through a hard link after the manifest was
// written); the excess is never read.
struct ManifestEntry {
  uint64_t id = 0;
  uint64_t length = 0;
};

Status ParseManifest(std::string_view data, uint64_t* next_id,
                     std::vector<ManifestEntry>* entries) {
  Decoder dec(data);
  uint32_t magic, count;
  if (!dec.GetFixed32(&magic) || magic != kManifestMagic) {
    return Status::Corruption("bad manifest magic");
  }
  if (!dec.GetFixed64(next_id) || !dec.GetFixed32(&count)) {
    return Status::Corruption("bad manifest header");
  }
  entries->clear();
  for (uint32_t i = 0; i < count; ++i) {
    ManifestEntry e;
    if (!dec.GetFixed64(&e.id) || !dec.GetFixed64(&e.length)) {
      return Status::Corruption("bad manifest entry");
    }
    entries->push_back(e);
  }
  if (!dec.done()) return Status::Corruption("manifest trailing bytes");
  return Status::OK();
}

std::string EncodeManifest(uint64_t next_id,
                           const std::vector<ManifestEntry>& entries) {
  std::string buf;
  PutFixed32(&buf, kManifestMagic);
  PutFixed64(&buf, next_id);
  PutFixed32(&buf, static_cast<uint32_t>(entries.size()));
  for (const auto& e : entries) {
    PutFixed64(&buf, e.id);
    PutFixed64(&buf, e.length);
  }
  return buf;
}

std::string SegmentFileName(uint64_t id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "seg-%06llu.dat",
                static_cast<unsigned long long>(id));
  return buf;
}

bool ParseSegmentFileName(const std::string& name, uint64_t* id) {
  constexpr char kPrefix[] = "seg-";
  constexpr char kSuffix[] = ".dat";
  if (name.size() <= 4 + 4 || name.compare(0, 4, kPrefix) != 0 ||
      name.compare(name.size() - 4, 4, kSuffix) != 0) {
    return false;
  }
  uint64_t v = 0;
  for (size_t i = 4; i < name.size() - 4; ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    v = v * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  *id = v;
  return true;
}

std::string Basename(const std::string& path) {
  size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

bool EndsWith(const std::string& s, const char* suffix) {
  size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

}  // namespace

const char* ReadModeName(ReadMode mode) {
  switch (mode) {
    case ReadMode::kIndexOnly: return "index-only";
    case ReadMode::kSingleFixedWindow: return "single-fix-window";
    case ReadMode::kMultiFixedWindow: return "multi-fix-window";
    case ReadMode::kMultiDynamicWindow: return "multi-dynamic-window";
  }
  return "?";
}

StatusOr<std::unique_ptr<MRBGStore>> MRBGStore::Open(
    const std::string& dir, const MRBGStoreOptions& options) {
  I2MR_RETURN_IF_ERROR(CreateDirs(dir));
  auto store = std::unique_ptr<MRBGStore>(new MRBGStore(dir, options));
  I2MR_RETURN_IF_ERROR(store->OpenFiles());
  store->StartCompactor();
  return store;
}

MRBGStore::~MRBGStore() { (void)Close(); }

std::string MRBGStore::ManifestPath() const {
  return JoinPath(dir_, kManifestName);
}
std::string MRBGStore::SegmentPath(uint64_t id) const {
  return JoinPath(dir_, SegmentFileName(id));
}

// ---------------------------------------------------------------------------
// Open / recovery
// ---------------------------------------------------------------------------

Status MRBGStore::OpenFiles() {
  // The retired single-file layout has no checksums and keeps its deletes
  // only in its index; there is no migration, and its files are left for
  // the operator to remove.
  for (const char* raw : {"mrbg.dat", "mrbg.idx"}) {
    std::string path = JoinPath(dir_, raw);
    if (FileExists(path)) {
      return Status::Corruption("unsupported single-file MRBG store: " + path);
    }
  }
  bool have_manifest = FileExists(ManifestPath());
  segments_.clear();
  next_segment_id_ = 1;
  if (have_manifest) {
    auto data = ReadFileToString(ManifestPath());
    if (!data.ok()) return data.status();
    std::vector<ManifestEntry> entries;
    I2MR_RETURN_IF_ERROR(ParseManifest(*data, &next_segment_id_, &entries));
    for (const auto& e : entries) {
      Segment seg;
      seg.id = e.id;
      seg.length = e.length;
      segments_.push_back(std::move(seg));
    }
  }

  // Drop strays: tmp files of an interrupted rewrite, and segments a
  // crashed compaction renamed but never committed to the manifest. The
  // manifest is the commit point; anything it doesn't name is garbage.
  std::unordered_set<uint64_t> referenced;
  for (const auto& seg : segments_) referenced.insert(seg.id);
  auto files = ListFiles(dir_);
  if (!files.ok()) return files.status();
  for (const auto& path : *files) {
    std::string name = Basename(path);
    bool stray = EndsWith(name, ".tmp");
    uint64_t id;
    if (ParseSegmentFileName(name, &id)) {
      stray = !have_manifest || referenced.count(id) == 0;
    }
    if (stray) I2MR_RETURN_IF_ERROR(RemoveAll(path));
  }

  // Rebuild the chunk index by sequentially scanning the committed
  // segments in logical order (last writer wins; tombstones erase).
  index_.Clear();
  for (size_t i = 0; i < segments_.size(); ++i) {
    I2MR_RETURN_IF_ERROR(ScanSegmentLocked(i));
  }

  // Always start a fresh active segment on a fresh inode: a restored
  // segment file may share its inode with a committed epoch snapshot, so
  // it must never be appended to in place.
  Segment active;
  active.id = next_segment_id_++;
  auto w = WritableFile::Create(SegmentPath(active.id), /*append=*/false);
  if (!w.ok()) return w.status();
  writer_ = std::move(w.value());
  segments_.push_back(std::move(active));
  file_end_ = 0;
  batch_start_ = 0;

  live_bytes_ = 0;
  live_active_bytes_ = 0;
  sealed_bytes_ = 0;
  index_.ForEach([&](const std::string&, const ChunkLocation& loc) {
    live_bytes_ += loc.length;
  });
  for (size_t i = 0; i + 1 < segments_.size(); ++i) {
    sealed_bytes_ += segments_[i].length;
  }
  crashed_ = false;

  // A compaction interrupted mid-pass left its waste behind; the policy
  // check re-triggers it, which is how a half-finished pass "resumes".
  if (options_.background_compaction && ShouldCompactLocked()) {
    RequestCompactionLocked();
  }
  return Status::OK();
}

Status MRBGStore::ScanSegmentLocked(size_t pos) {
  Segment& seg = segments_[pos];
  if (seg.length == 0) return Status::OK();
  std::string path = SegmentPath(seg.id);
  auto sz = FileSize(path);
  if (!sz.ok()) return sz.status();
  if (*sz < seg.length) {
    return Status::Corruption("segment shorter than manifest: " + path);
  }
  auto mm = MmapFile::Open(path);
  if (!mm.ok()) return mm.status();
  // Cap strictly at the committed length: anything past it is a dead tail
  // grown through a hard link after this manifest was written.
  std::string_view view = (*mm)->data().substr(0, seg.length);
  uint32_t batch_id = static_cast<uint32_t>(index_.batches().size());
  index_.AddBatch(BatchInfo{0, seg.length, seg.id});
  uint64_t off = 0;
  ScannedFrame frame;
  while (off < seg.length) {
    Status st = ScanFrame(view.substr(off), &frame);
    if (!st.ok()) {
      // The committed region must scan clean — torn frames can only exist
      // past a manifest boundary, and those bytes were capped away.
      return Status::Corruption("bad frame in " + path + " at offset " +
                                std::to_string(off) + ": " + st.message());
    }
    if (frame.tombstone) {
      index_.Erase(frame.key);
    } else {
      index_.Put(frame.key, ChunkLocation{off, frame.length, batch_id, seg.id});
    }
    off += frame.length;
  }
  return Status::OK();
}

Status MRBGStore::WriteManifestLocked() {
  if (crashed_) return Status::OK();
  std::vector<ManifestEntry> entries;
  for (size_t i = 0; i < segments_.size(); ++i) {
    bool is_active = writer_ != nullptr && i + 1 == segments_.size();
    uint64_t len =
        is_active ? file_end_ - append_buf_.size() : segments_[i].length;
    if (len > 0) entries.push_back(ManifestEntry{segments_[i].id, len});
  }
  std::string tmp = ManifestPath() + ".tmp";
  I2MR_RETURN_IF_ERROR(
      WriteStringToFile(tmp, EncodeManifest(next_segment_id_, entries)));
  return RenameFile(tmp, ManifestPath());
}

// ---------------------------------------------------------------------------
// Close / reload
// ---------------------------------------------------------------------------

Status MRBGStore::Close() {
  StopCompactor();
  std::lock_guard<std::mutex> lk(mu_);
  return CloseLocked();
}

Status MRBGStore::CloseLocked() {
  if (writer_ == nullptr) return Status::OK();
  if (crashed_) {
    // Leave the disk exactly as the simulated crash left it: no final
    // flush, no batch record, no manifest.
    (void)writer_->Close();
    writer_.reset();
    for (auto& s : segments_) s.reader.reset();
    return Status::OK();
  }
  I2MR_RETURN_IF_ERROR(FlushAppendBufferLocked());
  if (file_end_ > batch_start_) {
    index_.AddBatch(BatchInfo{batch_start_, file_end_, active_id_locked()});
    batch_start_ = file_end_;
  }
  segments_.back().length = file_end_;
  Status st = writer_->Close();
  writer_.reset();
  if (file_end_ == 0) {
    // Don't leave an empty active segment file behind.
    std::string path = SegmentPath(segments_.back().id);
    segments_.pop_back();
    if (Status st = RemoveAll(path); !st.ok()) {
      LOG_WARN << "mrbg: leaking empty active segment: " << st.ToString();
    }
  }
  I2MR_RETURN_IF_ERROR(WriteManifestLocked());
  for (auto& s : segments_) s.reader.reset();
  return st;
}

Status MRBGStore::Reload() {
  StopCompactor();
  {
    std::lock_guard<std::mutex> lk(mu_);
    index_.Clear();
    append_buf_.clear();
    tail_buf_.clear();
    tail_dead_ = 0;
    tail_start_ = 0;
    windows_.clear();
    query_keys_.clear();
    query_cursor_ = 0;
    if (writer_ != nullptr) {
      I2MR_RETURN_IF_ERROR(writer_->Close());
      writer_.reset();
    }
    segments_.clear();
    next_segment_id_ = 1;
    batch_start_ = 0;
    file_end_ = 0;
    live_bytes_ = 0;
    live_active_bytes_ = 0;
    sealed_bytes_ = 0;
    tail_torn_ = false;
    crashed_ = false;
    I2MR_RETURN_IF_ERROR(OpenFiles());
  }
  StartCompactor();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------------

Status MRBGStore::FlushAppendBufferLocked() {
  if (append_buf_.empty() || crashed_) return Status::OK();
  // file_end_ already counts the buffer, which the index points into.
  const uint64_t flushed = file_end_ - append_buf_.size();
  if (tail_torn_) I2MR_RETURN_IF_ERROR(TruncateActiveLocked(flushed));
  Status st = writer_->Append(append_buf_);
  if (st.ok()) st = writer_->Flush();
  if (!st.ok()) {
    // A failed append can leave a torn prefix of the buffer in the
    // segment, and a retry writes the whole buffer again: cut the file
    // back to its flushed length first (as the delta log's rollback does),
    // so the retry lands at the offsets the index holds. A failed cut is
    // retried before the next append.
    tail_torn_ = true;
    Status cut = TruncateActiveLocked(flushed);
    if (!cut.ok()) LOG_WARN << "mrbg: " << cut.ToString();
    return st;
  }
  if (options_.tail_cache_bytes > 0) {
    // Keep a copy of the flushed bytes: the next iteration's merge loop
    // re-queries exactly the chunks this iteration appended.
    if (tail_buf_.size() == tail_dead_) {
      tail_buf_.clear();
      tail_dead_ = 0;
      tail_start_ = file_end_ - append_buf_.size();
    }
    tail_buf_.append(append_buf_);
    size_t live = tail_buf_.size() - tail_dead_;
    if (live > options_.tail_cache_bytes) {
      size_t drop = live - options_.tail_cache_bytes;
      tail_dead_ += drop;
      tail_start_ += drop;
    }
    if (tail_dead_ > options_.tail_cache_bytes) {
      // Compact only once the dead prefix outgrows the budget.
      tail_buf_.erase(0, tail_dead_);
      tail_dead_ = 0;
    }
  }
  append_buf_.clear();
  segments_.back().reader.reset();  // file grew
  return Status::OK();
}

Status MRBGStore::TruncateActiveLocked(uint64_t length) {
  // Snapshots hard-link the active segment but cap it at a length that
  // was flushed when they were taken, so cutting past `length` never
  // touches bytes a snapshot references.
  const std::string path = SegmentPath(segments_.back().id);
  (void)writer_->Close();  // drains stdio's buffer; the cut drops it
  if (::truncate(path.c_str(), static_cast<off_t>(length)) != 0) {
    return Status::IOError("truncate " + path + ": " + std::strerror(errno));
  }
  auto w = WritableFile::Create(path, /*append=*/true);
  if (!w.ok()) return w.status();
  writer_ = std::move(w.value());
  segments_.back().reader.reset();
  tail_torn_ = false;
  return Status::OK();
}

Status MRBGStore::AppendChunkLocked(const Chunk& chunk) {
  return IndexAppendedLocked(chunk.key, EncodeChunk(chunk, &append_buf_));
}

Status MRBGStore::IndexAppendedLocked(const std::string& key, uint32_t len) {
  const uint64_t active = active_id_locked();
  if (const ChunkLocation* old = index_.Lookup(key)) {
    live_bytes_ -= old->length;
    if (old->segment == active) live_active_bytes_ -= old->length;
  }
  uint64_t offset = file_end_;
  file_end_ += len;
  live_bytes_ += len;
  live_active_bytes_ += len;
  index_.Put(key, ChunkLocation{offset, len, open_batch_id_locked(), active});
  ++stats_.chunks_appended;
  stats_.bytes_appended += len;
  if (append_buf_.size() >= options_.append_buffer_bytes) {
    return FlushAppendBufferLocked();
  }
  return Status::OK();
}

Status MRBGStore::RemoveChunkLocked(const std::string& key) {
  const ChunkLocation* old = index_.Lookup(key);
  if (old == nullptr) return Status::OK();
  live_bytes_ -= old->length;
  if (old->segment == active_id_locked()) live_active_bytes_ -= old->length;
  // A durable delete: the tombstone replays as an erase when the index is
  // rebuilt by scan.
  uint32_t tlen = EncodeTombstone(key, &append_buf_);
  file_end_ += tlen;
  stats_.bytes_appended += tlen;
  ++stats_.tombstones_appended;
  index_.Erase(key);
  ++stats_.chunks_removed;
  if (append_buf_.size() >= options_.append_buffer_bytes) {
    return FlushAppendBufferLocked();
  }
  return Status::OK();
}

Status MRBGStore::FinishBatchLocked(bool persist_index) {
  if (crashed_) return Status::OK();
  I2MR_RETURN_IF_ERROR(FlushAppendBufferLocked());
  if (file_end_ > batch_start_) {
    index_.AddBatch(BatchInfo{batch_start_, file_end_, active_id_locked()});
    batch_start_ = file_end_;
  }
  segments_.back().length = file_end_;
  if (file_end_ >= options_.segment_target_bytes) {
    I2MR_RETURN_IF_ERROR(RotateActiveLocked());
  }
  if (persist_index) I2MR_RETURN_IF_ERROR(WriteManifestLocked());
  if (options_.background_compaction && ShouldCompactLocked()) {
    RequestCompactionLocked();
  }
  return Status::OK();
}

Status MRBGStore::RotateActiveLocked() {
  // Callers close the open batch and flush before rotating. The next
  // segment is created before the active one is sealed: if the create
  // fails, the active segment stays open and the store keeps appending.
  if (file_end_ == 0) return Status::OK();
  Segment next;
  next.id = next_segment_id_;
  auto w = WritableFile::Create(SegmentPath(next.id), /*append=*/false);
  if (!w.ok()) return w.status();
  ++next_segment_id_;
  Status closed = writer_->Close();
  writer_ = std::move(w.value());
  segments_.back().length = file_end_;
  segments_.back().reader.reset();
  sealed_bytes_ += file_end_;
  live_active_bytes_ = 0;
  segments_.push_back(std::move(next));
  file_end_ = 0;
  batch_start_ = 0;
  tail_buf_.clear();
  tail_dead_ = 0;
  tail_start_ = 0;
  return closed;
}

Status MRBGStore::AppendChunk(const Chunk& chunk) {
  std::lock_guard<std::mutex> lk(mu_);
  return AppendChunkLocked(chunk);
}

Status MRBGStore::RemoveChunk(const std::string& key) {
  std::lock_guard<std::mutex> lk(mu_);
  return RemoveChunkLocked(key);
}

Status MRBGStore::FinishBatch(bool persist_index) {
  std::lock_guard<std::mutex> lk(mu_);
  return FinishBatchLocked(persist_index);
}

Status MRBGStore::PersistIndex() {
  std::lock_guard<std::mutex> lk(mu_);
  return WriteManifestLocked();
}

// ---------------------------------------------------------------------------
// Query path
// ---------------------------------------------------------------------------

Status MRBGStore::PrepareQueries(std::vector<std::string> sorted_keys) {
  std::lock_guard<std::mutex> lk(mu_);
  query_keys_ = std::move(sorted_keys);
  query_cursor_ = 0;
  windows_.clear();
  return Status::OK();
}

MRBGStore::Segment* MRBGStore::FindSegmentLocked(uint64_t id) {
  for (auto& s : segments_) {
    if (s.id == id) return &s;
  }
  return nullptr;
}

StatusOr<RandomAccessFile*> MRBGStore::SegmentReaderLocked(uint64_t id) {
  Segment* seg = FindSegmentLocked(id);
  if (seg == nullptr) {
    return Status::Corruption("chunk in unknown segment " + std::to_string(id));
  }
  if (seg->reader == nullptr) {
    auto r = RandomAccessFile::Open(SegmentPath(seg->id));
    if (!r.ok()) return r.status();
    seg->reader = std::shared_ptr<RandomAccessFile>(std::move(r.value()));
  }
  return seg->reader.get();
}

uint64_t MRBGStore::SegmentFlushedEndLocked(const ChunkLocation& loc) const {
  if (loc.segment == segments_.back().id) {
    return file_end_ - append_buf_.size();
  }
  for (const auto& s : segments_) {
    if (s.id == loc.segment) return s.length;
  }
  return 0;
}

uint64_t MRBGStore::DynamicWindowEndLocked(const ChunkLocation& loc,
                                           size_t qpos) const {
  // Algorithm 1 (+ §5.2 multi-batch skip): grow the window over upcoming
  // queried chunks in the same batch while the gap between consecutive
  // chunks stays below T and the window fits in the read cache.
  uint64_t window_bytes = loc.length;
  uint64_t last_end = loc.offset + loc.length;
  for (size_t j = qpos + 1; j < query_keys_.size(); ++j) {
    const ChunkLocation* next = index_.Lookup(query_keys_[j]);
    if (next == nullptr) continue;            // key absent: no position
    if (next->segment != loc.segment) continue;  // other file: other window
    if (next->batch != loc.batch) continue;   // other batch: other window
    if (next->offset < last_end) continue;    // already covered
    uint64_t gap = next->offset - last_end;
    if (gap >= options_.gap_threshold_bytes) break;
    if (window_bytes + gap + next->length > options_.read_cache_bytes) break;
    window_bytes += gap + next->length;
    last_end = next->offset + next->length;
  }
  return last_end;
}

StatusOr<std::string_view> MRBGStore::ReadChunkBytesLocked(
    const ChunkLocation& loc) {
  bool in_active = loc.segment == active_id_locked();

  // Recently flushed? Serve from the retained tail copy, no I/O. (The tail
  // cache covers the active segment only.)
  size_t tail_live = tail_buf_.size() - tail_dead_;
  if (in_active && tail_live > 0 && loc.offset >= tail_start_ &&
      loc.offset + loc.length <= tail_start_ + tail_live) {
    ++stats_.cache_hits;
    return std::string_view(
        tail_buf_.data() + tail_dead_ + (loc.offset - tail_start_),
        loc.length);
  }

  auto opened = SegmentReaderLocked(loc.segment);
  if (!opened.ok()) return opened.status();
  RandomAccessFile* reader = *opened;

  if (options_.read_mode == ReadMode::kIndexOnly) {
    Window& w = windows_[~0ull];  // scratch window
    w.buf.clear();
    I2MR_RETURN_IF_ERROR(reader->Read(loc.offset, loc.length, &w.buf));
    ++stats_.io_reads;
    stats_.bytes_read += w.buf.size();
    if (w.buf.size() < loc.length) {
      return Status::Corruption("short chunk read");
    }
    w.start = loc.offset;
    w.end = loc.offset + w.buf.size();
    return std::string_view(w.buf.data(), loc.length);
  }

  // Offsets are segment-relative, so windows are keyed per segment — even
  // in single-window mode.
  uint64_t wkey = loc.segment << 32;
  if (options_.read_mode != ReadMode::kSingleFixedWindow) wkey |= loc.batch;
  Window& w = windows_[wkey];
  if (loc.offset >= w.start && loc.offset + loc.length <= w.end &&
      !w.buf.empty()) {
    ++stats_.cache_hits;
    return std::string_view(w.buf.data() + (loc.offset - w.start), loc.length);
  }

  // Miss: choose the read range.
  uint64_t end;
  switch (options_.read_mode) {
    case ReadMode::kSingleFixedWindow:
    case ReadMode::kMultiFixedWindow:
      end = loc.offset +
            std::max<uint64_t>(loc.length, options_.fixed_window_bytes);
      break;
    case ReadMode::kMultiDynamicWindow: {
      // Locate the query cursor position of this chunk's key to look ahead.
      end = DynamicWindowEndLocked(loc, query_cursor_);
      break;
    }
    default:
      end = loc.offset + loc.length;
  }
  // Never read past this batch (multi-window modes) or the flushed bytes
  // of the chunk's file.
  if (options_.read_mode != ReadMode::kSingleFixedWindow &&
      loc.batch < index_.batches().size()) {
    end = std::min<uint64_t>(end, index_.batches()[loc.batch].end);
  }
  end = std::min<uint64_t>(end, SegmentFlushedEndLocked(loc));
  end = std::max<uint64_t>(end, loc.offset + loc.length);

  I2MR_RETURN_IF_ERROR(
      reader->Read(loc.offset, static_cast<size_t>(end - loc.offset), &w.buf));
  ++stats_.io_reads;
  stats_.bytes_read += w.buf.size();
  if (w.buf.size() < loc.length) {
    return Status::Corruption("short window read");
  }
  w.start = loc.offset;
  w.end = loc.offset + w.buf.size();
  return std::string_view(w.buf.data(), loc.length);
}

Status MRBGStore::ChunkBytesLocked(const std::string& key,
                                   std::string_view* bytes) {
  ++stats_.queries;
  // Advance the cursor to this key's position in L (queries arrive in
  // PrepareQueries order; unknown keys fall back to standalone lookups).
  while (query_cursor_ < query_keys_.size() &&
         query_keys_[query_cursor_] < key) {
    ++query_cursor_;
  }
  *bytes = std::string_view();
  const ChunkLocation* loc = index_.Lookup(key);
  if (loc == nullptr) return Status::OK();

  // Chunk still sitting (entirely or partly) in the append buffer?
  bool in_active = loc->segment == active_id_locked();
  uint64_t flushed_end = file_end_ - append_buf_.size();
  if (in_active && loc->offset >= flushed_end) {
    *bytes = std::string_view(append_buf_.data() + (loc->offset - flushed_end),
                              loc->length);
    ++stats_.cache_hits;
    return Status::OK();
  }
  auto read = ReadChunkBytesLocked(*loc);
  if (!read.ok()) return read.status();
  *bytes = *read;
  return Status::OK();
}

StatusOr<Chunk> MRBGStore::QueryLocked(const std::string& key) {
  std::string_view bytes;
  I2MR_RETURN_IF_ERROR(ChunkBytesLocked(key, &bytes));
  if (bytes.empty()) return Status::NotFound("no chunk for key " + key);
  Chunk chunk;
  I2MR_RETURN_IF_ERROR(DecodeChunk(bytes, &chunk));
  if (chunk.key != key) {
    return Status::Corruption("index points to wrong chunk: wanted " + key +
                              " got " + chunk.key);
  }
  return chunk;
}

StatusOr<Chunk> MRBGStore::Query(const std::string& key) {
  std::lock_guard<std::mutex> lk(mu_);
  return QueryLocked(key);
}

bool MRBGStore::Contains(const std::string& key) const {
  std::lock_guard<std::mutex> lk(mu_);
  return index_.Contains(key);
}

size_t MRBGStore::num_chunks() const {
  std::lock_guard<std::mutex> lk(mu_);
  return index_.size();
}

size_t MRBGStore::num_batches() const {
  std::lock_guard<std::mutex> lk(mu_);
  return index_.batches().size();
}

Status MRBGStore::MergeGroup(const std::string& k2,
                             const std::vector<DeltaEdge>& deltas,
                             std::string* frame,
                             std::vector<std::string_view>* values) {
  std::lock_guard<std::mutex> lk(mu_);
  std::string_view old;
  I2MR_RETURN_IF_ERROR(ChunkBytesLocked(k2, &old));
  I2MR_RETURN_IF_ERROR(merger_.Merge(k2, old, deltas, frame, values));
  if (values->empty()) return RemoveChunkLocked(k2);
  append_buf_.append(*frame);
  return IndexAppendedLocked(k2, static_cast<uint32_t>(frame->size()));
}

// ---------------------------------------------------------------------------
// Iteration / compaction
// ---------------------------------------------------------------------------

Status MRBGStore::ForEachChunkLocked(
    const std::function<Status(const Chunk&)>& fn) {
  I2MR_RETURN_IF_ERROR(FlushAppendBufferLocked());
  std::vector<std::pair<std::string, ChunkLocation>> entries;
  entries.reserve(index_.size());
  index_.ForEach([&](const std::string& key, const ChunkLocation& loc) {
    entries.emplace_back(key, loc);
  });
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::string buf;
  for (const auto& [key, loc] : entries) {
    auto reader = SegmentReaderLocked(loc.segment);
    if (!reader.ok()) return reader.status();
    I2MR_RETURN_IF_ERROR((*reader)->Read(loc.offset, loc.length, &buf));
    if (buf.size() < loc.length) return Status::Corruption("short read");
    Chunk chunk;
    I2MR_RETURN_IF_ERROR(DecodeChunk(buf, &chunk));
    I2MR_RETURN_IF_ERROR(fn(chunk));
  }
  return Status::OK();
}

Status MRBGStore::ForEachChunk(const std::function<Status(const Chunk&)>& fn) {
  std::lock_guard<std::mutex> lk(mu_);
  return ForEachChunkLocked(fn);
}

bool MRBGStore::ShouldCompactLocked() const {
  if (segments_.size() <= 1) return false;
  if (segments_.size() - 1 > options_.compact_max_segments) return true;
  // Only sealed waste is reclaimable (victims are the sealed segments), so
  // the ratio must ignore the active segment or it would re-trigger
  // forever on waste a pass cannot touch.
  uint64_t live_sealed = live_bytes_ - live_active_bytes_;
  uint64_t waste =
      sealed_bytes_ > live_sealed ? sealed_bytes_ - live_sealed : 0;
  return waste >= options_.compact_min_wasted_bytes &&
         static_cast<double>(waste) >=
             options_.compact_wasted_ratio * static_cast<double>(sealed_bytes_);
}

void MRBGStore::RequestCompactionLocked() {
  {
    std::lock_guard<std::mutex> lk(compact_mu_);
    compact_requested_ = true;
  }
  compact_cv_.notify_all();
}

Status MRBGStore::CompactPass(bool all) {
  TRACE_SPAN("mrbg.compact", "all=%d", all ? 1 : 0);
  // An injected "mrbg/<stage>" crash point simulates process death: the
  // pass is abandoned and the store stops touching disk.
  auto crash_at = [&](const char* stage) {
    if (!fault::FaultInjector::Armed() ||
        !fault::FaultInjector::Instance()->AtCrashPoint(
            std::string("mrbg/") + stage)) {
      return false;
    }
    std::lock_guard<std::mutex> lk(mu_);
    crashed_ = true;
    return true;
  };

  struct Victim {
    uint64_t id;
    uint64_t length;
  };
  std::vector<Victim> victims;
  std::vector<std::pair<std::string, ChunkLocation>> lives;
  uint64_t out_id = 0;
  {
    TRACE_SPAN("compact.snapshot");
    std::lock_guard<std::mutex> lk(mu_);
    if (crashed_ || writer_ == nullptr) return Status::OK();
    if (all) {
      I2MR_RETURN_IF_ERROR(FlushAppendBufferLocked());
      if (file_end_ > batch_start_) {
        index_.AddBatch(
            BatchInfo{batch_start_, file_end_, active_id_locked()});
        batch_start_ = file_end_;
      }
      segments_.back().length = file_end_;
      I2MR_RETURN_IF_ERROR(RotateActiveLocked());
    }
    if (segments_.size() <= 1) {
      // Nothing sealed to rewrite.
      return all ? WriteManifestLocked() : Status::OK();
    }
    victims.reserve(segments_.size() - 1);
    for (size_t i = 0; i + 1 < segments_.size(); ++i) {
      victims.push_back(Victim{segments_[i].id, segments_[i].length});
    }
    uint64_t active = active_id_locked();
    index_.ForEach([&](const std::string& key, const ChunkLocation& loc) {
      if (loc.segment != active) lives.emplace_back(key, loc);
    });
    out_id = next_segment_id_++;
  }

  // ---- Rewrite phase: no lock held. The victims are sealed (immutable)
  // segments, read through private readers; appends, queries and epoch
  // snapshots proceed concurrently.
  trace::ScopedSpan rewrite_span("compact.rewrite", "victims=%zu live=%zu",
                                 victims.size(), lives.size());
  std::sort(lives.begin(), lives.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::unordered_set<uint64_t> victim_ids;
  for (const auto& v : victims) victim_ids.insert(v.id);

  uint64_t out_len = 0;
  std::unordered_map<std::string, uint64_t> new_off;
  if (!lives.empty()) {
    std::string tmp = SegmentPath(out_id) + ".tmp";
    auto w = WritableFile::Create(tmp);
    if (!w.ok()) return w.status();
    std::unordered_map<uint64_t, std::unique_ptr<RandomAccessFile>> readers;
    std::string buf;
    ScannedFrame frame;
    for (const auto& [key, loc] : lives) {
      auto& r = readers[loc.segment];
      if (r == nullptr) {
        auto rr = RandomAccessFile::Open(SegmentPath(loc.segment));
        if (!rr.ok()) return rr.status();
        r = std::move(rr.value());
      }
      I2MR_RETURN_IF_ERROR(r->Read(loc.offset, loc.length, &buf));
      if (buf.size() < loc.length) {
        return Status::Corruption("short chunk read compacting " + key);
      }
      Status st = ScanFrame(buf, &frame);
      if (!st.ok() || frame.tombstone || frame.key != key) {
        return Status::Corruption("bad chunk compacting " + key);
      }
      I2MR_RETURN_IF_ERROR(w.value()->Append(buf));
      new_off[key] = out_len;
      out_len += loc.length;
    }
    I2MR_RETURN_IF_ERROR(w.value()->Close());
    if (crash_at("rewrite")) return Status::OK();
    I2MR_RETURN_IF_ERROR(RenameFile(tmp, SegmentPath(out_id)));
    if (crash_at("rename")) return Status::OK();
  } else {
    if (crash_at("rewrite")) return Status::OK();
    if (crash_at("rename")) return Status::OK();
  }

  // ---- Install phase: swap segment list, index entries and MANIFEST
  // under the lock. Entries appended or removed while the rewrite ran
  // point at the active segment (or newer sealed ones) and win over the
  // compacted copies.
  std::vector<std::string> victim_paths;
  rewrite_span.End();
  {
    TRACE_SPAN("compact.install");
    std::lock_guard<std::mutex> lk(mu_);
    if (crashed_) return Status::OK();
    // The compacted segment goes FIRST in logical order: its data is older
    // than everything appended since the pass began.
    std::vector<Segment> new_segments;
    if (out_len > 0) {
      Segment out;
      out.id = out_id;
      out.length = out_len;
      new_segments.push_back(std::move(out));
    }
    for (auto& seg : segments_) {
      if (victim_ids.count(seg.id)) continue;
      new_segments.push_back(std::move(seg));
    }
    segments_ = std::move(new_segments);

    // Renumber batches: batch 0 is the compacted segment; batches of
    // surviving segments keep their relative order after it.
    std::vector<BatchInfo> new_batches;
    std::unordered_map<uint32_t, uint32_t> batch_map;
    if (out_len > 0) new_batches.push_back(BatchInfo{0, out_len, out_id});
    {
      const auto& old_batches = index_.batches();
      for (uint32_t b = 0; b < old_batches.size(); ++b) {
        if (victim_ids.count(old_batches[b].segment)) continue;
        batch_map[b] = static_cast<uint32_t>(new_batches.size());
        new_batches.push_back(old_batches[b]);
      }
      // The open batch (id == old size) maps to the new open id.
      batch_map[static_cast<uint32_t>(old_batches.size())] =
          static_cast<uint32_t>(new_batches.size());
    }
    index_.SetBatches(std::move(new_batches));

    bool missing = false;
    index_.ForEachMutable([&](const std::string& key, ChunkLocation& loc) {
      if (victim_ids.count(loc.segment)) {
        auto it = new_off.find(key);
        if (it == new_off.end()) {
          missing = true;
          return;
        }
        loc = ChunkLocation{it->second, loc.length, 0, out_id};
      } else {
        auto it = batch_map.find(loc.batch);
        if (it == batch_map.end()) {
          missing = true;
          return;
        }
        loc.batch = it->second;
      }
    });
    if (missing) {
      return Status::Corruption("compaction lost track of a live chunk");
    }

    uint64_t active = active_id_locked();
    live_bytes_ = 0;
    live_active_bytes_ = 0;
    index_.ForEach([&](const std::string&, const ChunkLocation& loc) {
      live_bytes_ += loc.length;
      if (loc.segment == active) live_active_bytes_ += loc.length;
    });
    sealed_bytes_ = 0;
    for (size_t i = 0; i + 1 < segments_.size(); ++i) {
      sealed_bytes_ += segments_[i].length;
    }
    windows_.clear();

    ++stats_.compaction_passes;
    uint64_t victim_bytes = 0;
    for (const auto& v : victims) victim_bytes += v.length;
    if (victim_bytes > out_len) {
      stats_.compaction_bytes_reclaimed += victim_bytes - out_len;
    }
    I2MR_RETURN_IF_ERROR(WriteManifestLocked());
    for (const auto& v : victims) victim_paths.push_back(SegmentPath(v.id));
  }
  if (crash_at("manifest")) return Status::OK();

  // Unlink the victims. Epoch snapshots that hard-linked them keep their
  // bytes alive until the snapshot dir itself is garbage-collected.
  for (const auto& p : victim_paths) {
    if (Status st = RemoveAll(p); !st.ok()) {
      LOG_WARN << "mrbg: compacted segment not reclaimed: " << st.ToString();
    }
  }
  return Status::OK();
}

Status MRBGStore::Compact() {
  std::unique_lock<std::mutex> clk(compact_mu_);
  compact_cv_.wait(clk, [&] { return !compact_running_; });
  compact_running_ = true;
  compact_requested_ = false;
  clk.unlock();
  Status st = CompactPass(/*all=*/true);
  clk.lock();
  compact_running_ = false;
  clk.unlock();
  compact_cv_.notify_all();
  return st;
}

Status MRBGStore::CompactIfNeeded() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!ShouldCompactLocked()) return Status::OK();
  }
  std::unique_lock<std::mutex> clk(compact_mu_);
  compact_cv_.wait(clk, [&] { return !compact_running_; });
  compact_running_ = true;
  compact_requested_ = false;
  clk.unlock();
  Status st = CompactPass(/*all=*/false);
  clk.lock();
  compact_running_ = false;
  clk.unlock();
  compact_cv_.notify_all();
  return st;
}

void MRBGStore::WaitForCompaction() {
  std::unique_lock<std::mutex> lk(compact_mu_);
  compact_cv_.wait(lk, [&] {
    return compact_stop_ || (!compact_requested_ && !compact_running_);
  });
}

void MRBGStore::CompactorMain() {
  trace::TraceCollector::SetThreadName("mrbg-compactor");
  for (;;) {
    std::unique_lock<std::mutex> lk(compact_mu_);
    compact_cv_.wait(lk, [&] {
      return compact_stop_ || (compact_requested_ && !compact_running_);
    });
    if (compact_stop_) return;
    compact_requested_ = false;
    compact_running_ = true;
    lk.unlock();
    Status st = CompactPass(/*all=*/false);
    if (!st.ok()) {
      LOG_WARN << "background compaction failed: " << st.ToString();
    }
    lk.lock();
    compact_running_ = false;
    lk.unlock();
    compact_cv_.notify_all();
  }
}

void MRBGStore::StartCompactor() {
  if (!options_.background_compaction) return;
  if (compactor_.joinable()) return;
  {
    std::lock_guard<std::mutex> lk(compact_mu_);
    compact_stop_ = false;
  }
  compactor_ = std::thread(&MRBGStore::CompactorMain, this);
}

void MRBGStore::StopCompactor() {
  if (!compactor_.joinable()) return;
  {
    std::lock_guard<std::mutex> lk(compact_mu_);
    compact_stop_ = true;
  }
  compact_cv_.notify_all();
  compactor_.join();
  compactor_ = std::thread();
  std::lock_guard<std::mutex> lk(compact_mu_);
  compact_stop_ = false;
  compact_requested_ = false;
  compact_running_ = false;
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

Status MRBGStore::SnapshotInto(const std::string& dst_dir,
                               std::vector<std::string>* files) {
  I2MR_RETURN_IF_ERROR(CreateDirs(dst_dir));
  std::lock_guard<std::mutex> lk(mu_);
  I2MR_RETURN_IF_ERROR(FlushAppendBufferLocked());
  // Hard-link every non-empty segment at its current committed length and
  // write a snapshot MANIFEST capping it there. The active segment keeps
  // growing through the original path afterwards, but only past what this
  // manifest references — restore scans stop at the recorded length.
  std::vector<ManifestEntry> entries;
  for (size_t i = 0; i < segments_.size(); ++i) {
    bool is_active = writer_ != nullptr && i + 1 == segments_.size();
    uint64_t len = is_active ? file_end_ : segments_[i].length;
    if (len == 0) continue;
    std::string dst = JoinPath(dst_dir, SegmentFileName(segments_[i].id));
    I2MR_RETURN_IF_ERROR(LinkOrCopyFile(SegmentPath(segments_[i].id), dst));
    entries.push_back(ManifestEntry{segments_[i].id, len});
    if (files != nullptr) files->push_back(dst);
  }
  std::string mpath = JoinPath(dst_dir, kManifestName);
  I2MR_RETURN_IF_ERROR(
      WriteStringToFile(mpath, EncodeManifest(next_segment_id_, entries)));
  if (files != nullptr) files->push_back(mpath);
  return Status::OK();
}

StatusOr<std::vector<std::string>> MRBGStore::ListStoreFiles(
    const std::string& dir) {
  std::vector<std::string> out;
  std::string manifest = JoinPath(dir, kManifestName);
  if (!FileExists(manifest)) return out;
  auto data = ReadFileToString(manifest);
  if (!data.ok()) return data.status();
  uint64_t next_id;
  std::vector<ManifestEntry> entries;
  I2MR_RETURN_IF_ERROR(ParseManifest(*data, &next_id, &entries));
  out.push_back(manifest);
  for (const auto& e : entries) {
    out.push_back(JoinPath(dir, SegmentFileName(e.id)));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

uint64_t MRBGStore::file_bytes() const {
  std::lock_guard<std::mutex> lk(mu_);
  return sealed_bytes_ + file_end_;
}

uint64_t MRBGStore::live_bytes() const {
  std::lock_guard<std::mutex> lk(mu_);
  return live_bytes_;
}

uint64_t MRBGStore::wasted_bytes() const {
  std::lock_guard<std::mutex> lk(mu_);
  uint64_t total = sealed_bytes_ + file_end_;
  return total > live_bytes_ ? total - live_bytes_ : 0;
}

size_t MRBGStore::num_segments() const {
  std::lock_guard<std::mutex> lk(mu_);
  return segments_.size();
}

}  // namespace i2mr
