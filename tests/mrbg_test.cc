// Tests for the MRBG-Store: chunk codec, chunk index, append/batch
// behaviour, the four read modes, merge semantics, segment log recovery,
// and compaction.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/codec.h"
#include "common/hash.h"
#include "common/random.h"
#include "io/env.h"
#include "io/fault_env.h"
#include "mrbg/chunk.h"
#include "mrbg/chunk_index.h"
#include "mrbg/mrbg_store.h"

namespace i2mr {
namespace {

Chunk MakeChunk(const std::string& key, int n_entries, uint64_t mk_base = 100,
                const std::string& v_prefix = "v") {
  Chunk c;
  c.key = key;
  for (int i = 0; i < n_entries; ++i) {
    c.entries.push_back(ChunkEntry{mk_base + i, v_prefix + std::to_string(i)});
  }
  return c;
}

/// Reference merge: decode, apply, re-encode. Deletions remove the matching
/// MK; insertions upsert by MK (paper §3.3: "checks duplicates, inserts if
/// no duplicate exists, else updates"). The streaming ChunkMerger must
/// produce exactly the bytes EncodeChunk gives for the result.
void ApplyDeltaToChunk(const std::vector<DeltaEdge>& deltas, Chunk* chunk) {
  std::unordered_map<uint64_t, size_t> by_mk;
  for (size_t i = 0; i < chunk->entries.size(); ++i) {
    by_mk[chunk->entries[i].mk] = i;
  }
  std::vector<bool> dead(chunk->entries.size(), false);
  for (const auto& d : deltas) {
    auto it = by_mk.find(d.mk);
    if (d.deleted) {
      if (it != by_mk.end()) dead[it->second] = true;
    } else if (it != by_mk.end()) {
      chunk->entries[it->second].v2 = d.v2;  // update in place
      dead[it->second] = false;              // resurrect if deleted earlier
    } else {
      chunk->entries.push_back(ChunkEntry{d.mk, d.v2});
      dead.push_back(false);
      by_mk[d.mk] = chunk->entries.size() - 1;
    }
  }
  size_t w = 0;
  for (size_t i = 0; i < chunk->entries.size(); ++i) {
    if (dead[i]) continue;
    if (w != i) chunk->entries[w] = std::move(chunk->entries[i]);
    ++w;
  }
  chunk->entries.resize(w);
}

/// Reference merge of `deltas` into `old` (nullptr: no preserved chunk):
/// the merged chunk, and its frame (empty when no entry remains).
Chunk ReferenceMerge(const std::string& key, const Chunk* old,
                     const std::vector<DeltaEdge>& deltas, std::string* frame) {
  Chunk merged;
  merged.key = key;
  if (old != nullptr) merged = *old;
  ApplyDeltaToChunk(deltas, &merged);
  frame->clear();
  if (!merged.empty()) EncodeChunk(merged, frame);
  return merged;
}

std::vector<std::string> Values(const Chunk& c) {
  std::vector<std::string> out;
  for (const auto& e : c.entries) out.push_back(e.v2);
  return out;
}

std::vector<std::string> Values(const std::vector<std::string_view>& views) {
  return std::vector<std::string>(views.begin(), views.end());
}

/// A random chunk of `n` entries over MKs [0, 2n), so a few MKs repeat.
Chunk RandomChunk(const std::string& key, int n, Rng* rng) {
  Chunk c;
  c.key = key;
  for (int i = 0; i < n; ++i) {
    const char fill = static_cast<char>('a' + i % 26);
    const uint64_t mk = rng->Uniform(2 * n + 1);
    c.entries.push_back(ChunkEntry{mk, std::string(rng->Uniform(12), fill)});
  }
  return c;
}

/// A random delta group against `old`: upserts and deletions of present
/// MKs, and of absent ones, with repeats, plus the named sequences.
std::vector<DeltaEdge> RandomDeltas(const Chunk& old, int n, Rng* rng) {
  std::vector<DeltaEdge> d;
  auto mk_of = [&]() -> uint64_t {
    if (!old.entries.empty() && rng->Uniform(2) == 0) {
      return old.entries[rng->Uniform(old.entries.size())].mk;
    }
    return 1000000 + rng->Uniform(2 * n + 1);  // absent MK
  };
  for (int i = 0; i < n; ++i) {
    const uint64_t mk = mk_of();
    switch (rng->Uniform(4)) {
      case 0:  // delete (of a present or an absent MK)
        d.push_back(DeltaEdge{"", mk, "", true});
        break;
      case 1:  // delete-then-insert
        d.push_back(DeltaEdge{"", mk, "", true});
        d.push_back(DeltaEdge{"", mk, "di" + std::to_string(i), false});
        break;
      case 2:  // insert-delete-insert
        d.push_back(DeltaEdge{"", mk, "x", false});
        d.push_back(DeltaEdge{"", mk, "", true});
        d.push_back(DeltaEdge{"", mk, "idi" + std::to_string(i), false});
        break;
      default:  // plain upsert (possibly a duplicate of an earlier MK)
        d.push_back(DeltaEdge{"", mk, "u" + std::to_string(i), false});
    }
  }
  return d;
}

/// Deletions of every MK `c` holds.
std::vector<DeltaEdge> DeleteAll(const Chunk& c) {
  std::vector<DeltaEdge> d;
  for (const auto& e : c.entries) d.push_back(DeltaEdge{"", e.mk, "", true});
  return d;
}

// ---------------------------------------------------------------------------
// Chunk codec
// ---------------------------------------------------------------------------

TEST(ChunkCodecTest, RoundTrip) {
  Chunk c = MakeChunk("vertex42", 3);
  std::string buf;
  uint32_t len = EncodeChunk(c, &buf);
  EXPECT_EQ(len, buf.size());
  EXPECT_EQ(len, EncodedChunkLength(c));
  Chunk out;
  ASSERT_TRUE(DecodeChunk(buf, &out).ok());
  EXPECT_EQ(out.key, c.key);
  ASSERT_EQ(out.entries.size(), 3u);
  EXPECT_EQ(out.entries[1].mk, 101u);
  EXPECT_EQ(out.entries[1].v2, "v1");
}

TEST(ChunkCodecTest, EmptyChunk) {
  Chunk c;
  c.key = "k";
  std::string buf;
  EncodeChunk(c, &buf);
  Chunk out;
  ASSERT_TRUE(DecodeChunk(buf, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(ChunkCodecTest, DetectsCorruption) {
  Chunk c = MakeChunk("k", 2);
  std::string buf;
  EncodeChunk(c, &buf);
  std::string bad = buf;
  bad[10] ^= 0x40;  // flip a payload bit
  Chunk out;
  EXPECT_TRUE(DecodeChunk(bad, &out).IsCorruption());
  // Bad magic.
  std::string bad2 = buf;
  bad2[0] = 'X';
  EXPECT_TRUE(DecodeChunk(bad2, &out).IsCorruption());
  // Truncated.
  EXPECT_TRUE(
      DecodeChunk(std::string_view(buf.data(), buf.size() - 1), &out)
          .IsCorruption());
}

TEST(ChunkCodecTest, BackToBackChunksDecodeAtBoundaries) {
  Chunk a = MakeChunk("a", 2), b = MakeChunk("b", 1);
  std::string buf;
  uint32_t la = EncodeChunk(a, &buf);
  uint32_t lb = EncodeChunk(b, &buf);
  Chunk out;
  ASSERT_TRUE(DecodeChunk(std::string_view(buf.data(), la), &out).ok());
  EXPECT_EQ(out.key, "a");
  ASSERT_TRUE(DecodeChunk(std::string_view(buf.data() + la, lb), &out).ok());
  EXPECT_EQ(out.key, "b");
}

// ---------------------------------------------------------------------------
// ApplyDeltaToChunk
// ---------------------------------------------------------------------------

TEST(ApplyDeltaTest, InsertNewEdges) {
  Chunk c = MakeChunk("k", 1);
  ApplyDeltaToChunk({{"k", 777, "new", false}}, &c);
  ASSERT_EQ(c.entries.size(), 2u);
  EXPECT_EQ(c.entries[1].mk, 777u);
}

TEST(ApplyDeltaTest, DeleteExistingEdge) {
  Chunk c = MakeChunk("k", 3);  // mks 100,101,102
  ApplyDeltaToChunk({{"k", 101, "", true}}, &c);
  ASSERT_EQ(c.entries.size(), 2u);
  EXPECT_EQ(c.entries[0].mk, 100u);
  EXPECT_EQ(c.entries[1].mk, 102u);
}

TEST(ApplyDeltaTest, UpdateIsDeleteThenInsert) {
  // Paper §3.3: a modification arrives as <k,mk,'-'> followed by
  // <k,mk,new-value>.
  Chunk c = MakeChunk("k", 2);
  ApplyDeltaToChunk({{"k", 100, "", true}, {"k", 100, "updated", false}}, &c);
  ASSERT_EQ(c.entries.size(), 2u);
  bool found = false;
  for (const auto& e : c.entries) {
    if (e.mk == 100) {
      EXPECT_EQ(e.v2, "updated");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(ApplyDeltaTest, UpsertWithoutPriorDelete) {
  Chunk c = MakeChunk("k", 1);  // mk 100
  ApplyDeltaToChunk({{"k", 100, "replaced", false}}, &c);
  ASSERT_EQ(c.entries.size(), 1u);
  EXPECT_EQ(c.entries[0].v2, "replaced");
}

TEST(ApplyDeltaTest, DeleteAllLeavesEmpty) {
  Chunk c = MakeChunk("k", 2);
  ApplyDeltaToChunk({{"k", 100, "", true}, {"k", 101, "", true}}, &c);
  EXPECT_TRUE(c.empty());
}

TEST(ApplyDeltaTest, DeleteOfMissingMkIsNoop) {
  Chunk c = MakeChunk("k", 1);
  ApplyDeltaToChunk({{"k", 999, "", true}}, &c);
  EXPECT_EQ(c.entries.size(), 1u);
}

// ---------------------------------------------------------------------------
// ChunkIndex
// ---------------------------------------------------------------------------

TEST(ChunkIndexTest, PutLookupErase) {
  ChunkIndex idx;
  EXPECT_EQ(idx.Lookup("a"), nullptr);
  idx.Put("a", {10, 20, 0});
  ASSERT_NE(idx.Lookup("a"), nullptr);
  EXPECT_EQ(idx.Lookup("a")->offset, 10u);
  idx.Put("a", {30, 40, 1});  // overwrite points at latest version
  EXPECT_EQ(idx.Lookup("a")->offset, 30u);
  EXPECT_EQ(idx.Lookup("a")->batch, 1u);
  idx.Erase("a");
  EXPECT_EQ(idx.Lookup("a"), nullptr);
}

// ---------------------------------------------------------------------------
// MRBGStore
// ---------------------------------------------------------------------------

class MRBGStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/i2mr_store_test";
    ASSERT_TRUE(ResetDir(dir_).ok());
  }
  void TearDown() override { RemoveAll(dir_).ok(); }

  std::unique_ptr<MRBGStore> OpenStore(MRBGStoreOptions opts = {}) {
    auto s = MRBGStore::Open(JoinPath(dir_, "store"), opts);
    EXPECT_TRUE(s.ok()) << s.status().ToString();
    return std::move(s.value());
  }

  /// The last segment file of the store (empty if none).
  std::string SegmentFile() const {
    auto files = MRBGStore::ListStoreFiles(JoinPath(dir_, "store"));
    std::string seg;
    if (!files.ok()) return seg;
    for (const auto& f : *files) {
      if (f.find("seg-") != std::string::npos) seg = f;
    }
    return seg;
  }

  std::string dir_;
};

TEST_F(MRBGStoreTest, AppendQueryRoundTrip) {
  auto store = OpenStore();
  ASSERT_TRUE(store->AppendChunk(MakeChunk("a", 2)).ok());
  ASSERT_TRUE(store->AppendChunk(MakeChunk("b", 3)).ok());
  ASSERT_TRUE(store->FinishBatch().ok());
  ASSERT_TRUE(store->PrepareQueries({"a", "b"}).ok());
  auto a = store->Query("a");
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_EQ(a->entries.size(), 2u);
  auto b = store->Query("b");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->entries.size(), 3u);
  EXPECT_EQ(store->num_chunks(), 2u);
  EXPECT_EQ(store->num_batches(), 1u);
}

TEST_F(MRBGStoreTest, QueryMissingKeyIsNotFound) {
  auto store = OpenStore();
  ASSERT_TRUE(store->AppendChunk(MakeChunk("a", 1)).ok());
  ASSERT_TRUE(store->FinishBatch().ok());
  ASSERT_TRUE(store->PrepareQueries({"zz"}).ok());
  EXPECT_TRUE(store->Query("zz").status().IsNotFound());
}

TEST_F(MRBGStoreTest, QueryFromAppendBufferBeforeFlush) {
  auto store = OpenStore();
  ASSERT_TRUE(store->AppendChunk(MakeChunk("a", 2)).ok());
  // Not flushed yet: chunk is served from the append buffer.
  ASSERT_TRUE(store->PrepareQueries({"a"}).ok());
  auto a = store->Query("a");
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_EQ(a->entries.size(), 2u);
  EXPECT_EQ(store->stats().io_reads, 0u);
}

TEST_F(MRBGStoreTest, PersistsAcrossReopen) {
  {
    auto store = OpenStore();
    ASSERT_TRUE(store->AppendChunk(MakeChunk("k1", 2)).ok());
    ASSERT_TRUE(store->AppendChunk(MakeChunk("k2", 1)).ok());
    ASSERT_TRUE(store->FinishBatch().ok());
    ASSERT_TRUE(store->Close().ok());
  }
  auto store = OpenStore();
  EXPECT_EQ(store->num_chunks(), 2u);
  ASSERT_TRUE(store->PrepareQueries({"k1", "k2"}).ok());
  auto k1 = store->Query("k1");
  ASSERT_TRUE(k1.ok());
  EXPECT_EQ(k1->entries.size(), 2u);
}

TEST_F(MRBGStoreTest, CloseWithoutFinishBatchStillDurable) {
  {
    auto store = OpenStore();
    ASSERT_TRUE(store->AppendChunk(MakeChunk("k1", 2)).ok());
    ASSERT_TRUE(store->Close().ok());  // implicit FinishBatch
  }
  auto store = OpenStore();
  EXPECT_EQ(store->num_chunks(), 1u);
  EXPECT_EQ(store->num_batches(), 1u);
}

TEST_F(MRBGStoreTest, LatestVersionWins) {
  auto store = OpenStore();
  ASSERT_TRUE(store->AppendChunk(MakeChunk("a", 1, 100, "old")).ok());
  ASSERT_TRUE(store->FinishBatch().ok());
  ASSERT_TRUE(store->AppendChunk(MakeChunk("a", 2, 200, "new")).ok());
  ASSERT_TRUE(store->FinishBatch().ok());
  EXPECT_EQ(store->num_batches(), 2u);
  ASSERT_TRUE(store->PrepareQueries({"a"}).ok());
  auto a = store->Query("a");
  ASSERT_TRUE(a.ok());
  ASSERT_EQ(a->entries.size(), 2u);
  EXPECT_EQ(a->entries[0].v2, "new0");
}

TEST_F(MRBGStoreTest, RemoveChunkHidesKey) {
  auto store = OpenStore();
  ASSERT_TRUE(store->AppendChunk(MakeChunk("a", 1)).ok());
  ASSERT_TRUE(store->FinishBatch().ok());
  ASSERT_TRUE(store->RemoveChunk("a").ok());
  EXPECT_FALSE(store->Contains("a"));
  ASSERT_TRUE(store->PrepareQueries({"a"}).ok());
  EXPECT_TRUE(store->Query("a").status().IsNotFound());
  EXPECT_EQ(store->stats().chunks_removed, 1u);
}

TEST_F(MRBGStoreTest, MergeGroupInsertDeleteUpdate) {
  auto store = OpenStore();
  ASSERT_TRUE(store->AppendChunk(MakeChunk("j", 3)).ok());  // mks 100..102
  ASSERT_TRUE(store->FinishBatch().ok());

  ASSERT_TRUE(store->PrepareQueries({"j", "new"}).ok());
  std::string frame;
  std::vector<std::string_view> values;
  // Delete mk=100, update mk=101, insert mk=500.
  ASSERT_TRUE(store
                  ->MergeGroup("j",
                               {{"", 100, "", true},
                                {"", 101, "upd", false},
                                {"", 500, "ins", false}},
                               &frame, &values)
                  .ok());
  EXPECT_EQ(Values(values), (std::vector<std::string>{"upd", "v2", "ins"}));

  // Merge for a brand-new key creates its chunk.
  ASSERT_TRUE(
      store->MergeGroup("new", {{"", 1, "x", false}}, &frame, &values).ok());
  EXPECT_EQ(values.size(), 1u);
  ASSERT_TRUE(store->FinishBatch().ok());

  // Both persisted; latest version of "j" visible.
  ASSERT_TRUE(store->PrepareQueries({"j", "new"}).ok());
  auto j = store->Query("j");
  ASSERT_TRUE(j.ok());
  ASSERT_EQ(j->entries.size(), 3u);
  EXPECT_EQ(j->entries[0].mk, 101u);
  EXPECT_EQ(j->entries[2].mk, 500u);
  EXPECT_TRUE(store->Query("new").ok());
}

TEST_F(MRBGStoreTest, MergeToEmptyRemovesChunk) {
  auto store = OpenStore();
  ASSERT_TRUE(store->AppendChunk(MakeChunk("j", 1)).ok());  // mk 100
  ASSERT_TRUE(store->FinishBatch().ok());
  ASSERT_TRUE(store->PrepareQueries({"j"}).ok());
  std::string frame;
  std::vector<std::string_view> values;
  ASSERT_TRUE(
      store->MergeGroup("j", {{"", 100, "", true}}, &frame, &values).ok());
  EXPECT_TRUE(values.empty());
  EXPECT_TRUE(frame.empty());
  EXPECT_FALSE(store->Contains("j"));
}

// ---------------------------------------------------------------------------
// Streaming merge: byte parity with the decode/apply/encode reference
// ---------------------------------------------------------------------------

TEST(ChunkMergerTest, MatchesReferenceOnRandomGroups) {
  Rng rng(1234);
  ChunkMerger merger;
  std::string frame, want_frame, old_frame;
  std::vector<std::string_view> values;
  const int sizes[] = {0, 1, 2, 7, 64, 500, 5000};
  for (int round = 0; round < 40; ++round) {
    const int n = sizes[round % 7];
    Chunk old = RandomChunk("key" + std::to_string(round), n, &rng);
    old_frame.clear();
    EncodeChunk(old, &old_frame);
    const int nd = static_cast<int>(rng.Uniform(std::max(2, n / 8)) + 1);
    const std::vector<DeltaEdge> groups[] = {
        RandomDeltas(old, nd, &rng), {}, DeleteAll(old)};
    for (const auto& deltas : groups) {
      Chunk want = ReferenceMerge(old.key, &old, deltas, &want_frame);
      ASSERT_TRUE(
          merger.Merge(old.key, old_frame, deltas, &frame, &values).ok());
      ASSERT_EQ(frame, want_frame) << "round " << round << " n=" << n;
      ASSERT_EQ(Values(values), Values(want));
      // Against no preserved chunk at all.
      want = ReferenceMerge(old.key, nullptr, deltas, &want_frame);
      ASSERT_TRUE(merger.Merge(old.key, "", deltas, &frame, &values).ok());
      ASSERT_EQ(frame, want_frame);
      ASSERT_EQ(Values(values), Values(want));
    }
  }
}

TEST(ChunkMergerTest, NamedSequences) {
  ChunkMerger merger;
  Chunk old = MakeChunk("k", 3);  // mks 100, 101, 102
  old.entries.push_back(ChunkEntry{101, "dup"});  // 101 held twice
  std::string old_frame, frame, want_frame;
  EncodeChunk(old, &old_frame);
  std::vector<std::string_view> values;
  const std::vector<std::vector<DeltaEdge>> groups = {
      {{"", 100, "a", false}, {"", 100, "b", false}},   // duplicate MK
      {{"", 102, "", true}, {"", 102, "back", false}},  // delete-then-insert
      {{"", 7, "x", false}, {"", 7, "", true}, {"", 7, "y", false},
       {"", 8, "z", false}},                            // insert-delete-insert
      {{"", 999, "", true}},                            // delete of absent MK
      {{"", 101, "", true}},  // hits the last copy only
      DeleteAll(old),
  };
  for (const auto& deltas : groups) {
    Chunk want = ReferenceMerge("k", &old, deltas, &want_frame);
    ASSERT_TRUE(merger.Merge("k", old_frame, deltas, &frame, &values).ok());
    EXPECT_EQ(frame, want_frame);
    EXPECT_EQ(Values(values), Values(want));
  }
  // Delete of an absent MK leaves the chunk as it was.
  ASSERT_TRUE(merger.Merge("k", old_frame, {{"", 999, "", true}}, &frame,
                           &values)
                  .ok());
  EXPECT_EQ(frame, old_frame);
}

TEST(ChunkMergerTest, RejectsCorruptOrForeignFrames) {
  ChunkMerger merger;
  std::string old_frame, frame;
  EncodeChunk(MakeChunk("k", 4), &old_frame);
  std::vector<std::string_view> values;
  const std::vector<DeltaEdge> deltas = {{"", 100, "new", false}};
  for (size_t i = 0; i < old_frame.size(); ++i) {
    std::string bad = old_frame;
    bad[i] ^= 0x10;
    EXPECT_TRUE(merger.Merge("k", bad, deltas, &frame, &values).IsCorruption())
        << "flipped byte " << i;
  }
  EXPECT_TRUE(merger
                  .Merge("k", old_frame.substr(0, old_frame.size() - 1),
                         deltas, &frame, &values)
                  .IsCorruption());
  // A valid frame for another key, and a tombstone frame.
  EXPECT_TRUE(
      merger.Merge("other", old_frame, deltas, &frame, &values).IsCorruption());
  std::string tomb;
  EncodeTombstone("k", &tomb);
  EXPECT_TRUE(merger.Merge("k", tomb, deltas, &frame, &values).IsCorruption());
}

/// Where MergeGroup finds the preserved chunk.
enum class MergeSource { kAppendBuffer, kTailCache, kSealedWindow };

class MergeGroupParityTest
    : public MRBGStoreTest,
      public ::testing::WithParamInterface<MergeSource> {
 protected:
  MRBGStoreOptions Opts() const {
    MRBGStoreOptions o;
    o.append_buffer_bytes = 64u << 20;  // never spills mid-batch
    if (GetParam() == MergeSource::kTailCache) o.tail_cache_bytes = 64u << 20;
    if (GetParam() == MergeSource::kSealedWindow) o.segment_target_bytes = 1;
    return o;
  }

  /// Append `chunks`; unless serving from the append buffer, close the
  /// batch (flushing it; with a 1-byte segment target, sealing it).
  void Preserve(MRBGStore* store, const std::vector<Chunk>& chunks) {
    for (const auto& c : chunks) ASSERT_TRUE(store->AppendChunk(c).ok());
    if (GetParam() != MergeSource::kAppendBuffer) {
      ASSERT_TRUE(store->FinishBatch().ok());
    }
  }

  /// Read-path counters that tell the sources apart.
  void ExpectServedFromSource(const MRBGStoreStats& st) const {
    if (GetParam() == MergeSource::kSealedWindow) {
      EXPECT_GT(st.io_reads, 0u);
    } else {
      EXPECT_EQ(st.io_reads, 0u);
      EXPECT_GT(st.cache_hits, 0u);
    }
  }
};

TEST_P(MergeGroupParityTest, BytesValuesAndQueryMatchReference) {
  Rng rng(77);
  auto store = OpenStore(Opts());
  std::vector<Chunk> old;
  const int sizes[] = {0, 1, 3, 40, 700, 5000};
  for (int i = 0; i < 12; ++i) {
    old.push_back(RandomChunk(PaddedNum(i), sizes[i % 6], &rng));
  }
  // Chunks 5 and 11 will lose every entry: distinct MKs, so deleting each
  // MK once empties them.
  old[5] = MakeChunk(PaddedNum(5), 300);
  old[11] = MakeChunk(PaddedNum(11), 1);
  Preserve(store.get(), old);
  store->ResetStats();

  // Merge every chunk plus two brand-new keys; chunk 5 and 11 lose every
  // entry (tombstones), the new key "x1" only sees deletions (no chunk).
  std::vector<std::string> keys;
  for (const auto& c : old) keys.push_back(c.key);
  keys.push_back("x0");
  keys.push_back("x1");
  ASSERT_TRUE(store->PrepareQueries(keys).ok());
  std::map<std::string, Chunk> want;
  std::string frame, want_frame;
  std::vector<std::string_view> values;
  for (size_t i = 0; i < keys.size(); ++i) {
    const Chunk* prev = i < old.size() ? &old[i] : nullptr;
    Chunk empty;
    std::vector<DeltaEdge> deltas;
    if (i == 5 || i == 11) {
      deltas = DeleteAll(*prev);
    } else if (keys[i] == "x1") {
      deltas = {{"", 1, "", true}};
    } else {
      deltas = RandomDeltas(prev != nullptr ? *prev : empty, 20, &rng);
    }
    Chunk w = ReferenceMerge(keys[i], prev, deltas, &want_frame);
    ASSERT_TRUE(store->MergeGroup(keys[i], deltas, &frame, &values).ok())
        << keys[i];
    EXPECT_EQ(frame, want_frame) << keys[i];
    EXPECT_EQ(Values(values), Values(w)) << keys[i];
    if (!w.empty()) want[keys[i]] = w;
  }
  ExpectServedFromSource(store->stats());
  EXPECT_EQ(store->stats().tombstones_appended, 2u);
  ASSERT_TRUE(store->FinishBatch().ok());

  // A later Query sees exactly the reference chunks; emptied keys are gone.
  auto check = [&](MRBGStore* s) {
    ASSERT_TRUE(s->PrepareQueries(keys).ok());
    for (const auto& k : keys) {
      auto q = s->Query(k);
      auto it = want.find(k);
      if (it == want.end()) {
        EXPECT_TRUE(q.status().IsNotFound()) << k;
        continue;
      }
      ASSERT_TRUE(q.ok()) << k << ": " << q.status().ToString();
      EXPECT_EQ(q->entries, it->second.entries) << k;
    }
  };
  check(store.get());
  ASSERT_TRUE(store->Close().ok());
  auto reopened = OpenStore(Opts());
  EXPECT_EQ(reopened->num_chunks(), want.size());
  check(reopened.get());
}

INSTANTIATE_TEST_SUITE_P(Sources, MergeGroupParityTest,
                         ::testing::Values(MergeSource::kAppendBuffer,
                                           MergeSource::kTailCache,
                                           MergeSource::kSealedWindow));

TEST_F(MRBGStoreTest, MergeGroupDetectsFlippedPayloadByteOnDisk) {
  MRBGStoreOptions o;
  o.segment_target_bytes = 1;  // seal every batch
  auto store = OpenStore(o);
  ASSERT_TRUE(store->AppendChunk(MakeChunk("a", 4)).ok());
  ASSERT_TRUE(store->AppendChunk(MakeChunk("b", 4)).ok());
  ASSERT_TRUE(store->FinishBatch().ok());
  // Flip one payload byte of "b" in the sealed segment under the open
  // store: the scan at open has passed, so only the merge can notice.
  const std::string seg = SegmentFile();
  ASSERT_FALSE(seg.empty());
  std::string a_frame;
  EncodeChunk(MakeChunk("a", 4), &a_frame);
  {
    std::fstream f(seg, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    const std::streamoff off = static_cast<std::streamoff>(a_frame.size()) + 20;
    f.seekg(off);
    char c = 0;
    f.read(&c, 1);
    c ^= 0x01;
    f.seekp(off);
    f.write(&c, 1);
  }
  ASSERT_TRUE(store->PrepareQueries({"a", "b"}).ok());
  std::string frame;
  std::vector<std::string_view> values;
  EXPECT_TRUE(
      store->MergeGroup("a", {{"", 100, "x", false}}, &frame, &values).ok());
  EXPECT_TRUE(store->MergeGroup("b", {{"", 100, "x", false}}, &frame, &values)
                  .IsCorruption());
}

TEST_F(MRBGStoreTest, OpenRefusesFirstFormatFrames) {
  MRBGStoreOptions o;
  {
    auto store = OpenStore(o);
    ASSERT_TRUE(store->AppendChunk(MakeChunk("a", 2)).ok());
    ASSERT_TRUE(store->FinishBatch().ok());
    ASSERT_TRUE(store->Close().ok());
  }
  // Rewrite the committed frame in the first format: magic "MRBG", checksum
  // the low 32 bits of Hash64 over the payload. Same length, so the
  // MANIFEST still covers it exactly.
  const std::string seg = SegmentFile();
  ASSERT_FALSE(seg.empty());
  auto read = ReadFileToString(seg);
  ASSERT_TRUE(read.ok());
  const std::string& bytes = *read;
  const uint32_t payload_len = DecodeFixed32(bytes.data() + 4);
  ASSERT_EQ(bytes.size(), 12u + payload_len);
  std::string old_format;
  PutFixed32(&old_format, 0x4d524247);  // "MRBG"
  PutFixed32(&old_format, payload_len);
  old_format.append(bytes, 8, payload_len);
  PutFixed32(&old_format, static_cast<uint32_t>(
                              Hash64(bytes.data() + 8, payload_len)));
  ASSERT_TRUE(WriteStringToFile(seg, old_format).ok());
  auto reopened = MRBGStore::Open(JoinPath(dir_, "store"), o);
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsCorruption())
      << reopened.status().ToString();
}

TEST_F(MRBGStoreTest, ForEachChunkVisitsKeyOrder) {
  auto store = OpenStore();
  ASSERT_TRUE(store->AppendChunk(MakeChunk("b", 1)).ok());
  ASSERT_TRUE(store->AppendChunk(MakeChunk("c", 1)).ok());
  ASSERT_TRUE(store->FinishBatch().ok());
  ASSERT_TRUE(store->AppendChunk(MakeChunk("a", 1)).ok());
  ASSERT_TRUE(store->FinishBatch().ok());
  std::vector<std::string> keys;
  ASSERT_TRUE(store
                  ->ForEachChunk([&](const Chunk& c) {
                    keys.push_back(c.key);
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b", "c"}));
}

TEST_F(MRBGStoreTest, CompactDropsGarbageAndKeepsLiveChunks) {
  auto store = OpenStore();
  for (int round = 0; round < 5; ++round) {
    for (int k = 0; k < 20; ++k) {
      ASSERT_TRUE(store
                      ->AppendChunk(MakeChunk(PaddedNum(k), 3, 100,
                                              "r" + std::to_string(round)))
                      .ok());
    }
    ASSERT_TRUE(store->FinishBatch().ok());
  }
  ASSERT_TRUE(store->RemoveChunk(PaddedNum(7)).ok());
  uint64_t before = store->file_bytes();
  ASSERT_TRUE(store->Compact().ok());
  EXPECT_LT(store->file_bytes(), before);
  EXPECT_EQ(store->num_batches(), 1u);
  EXPECT_EQ(store->num_chunks(), 19u);
  ASSERT_TRUE(store->PrepareQueries({PaddedNum(3)}).ok());
  auto c = store->Query(PaddedNum(3));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->entries[0].v2, "r40");  // latest round survived

  // Store still writable after compaction.
  ASSERT_TRUE(store->AppendChunk(MakeChunk("zzz", 1)).ok());
  ASSERT_TRUE(store->FinishBatch().ok());
  ASSERT_TRUE(store->PrepareQueries({"zzz"}).ok());
  EXPECT_TRUE(store->Query("zzz").ok());
}

// All four read modes must return identical data; they differ only in I/O
// pattern.
class ReadModeTest : public MRBGStoreTest,
                     public ::testing::WithParamInterface<ReadMode> {};

TEST_P(ReadModeTest, AllModesReturnSameChunks) {
  MRBGStoreOptions opts;
  opts.read_mode = GetParam();
  opts.fixed_window_bytes = 256;  // small enough to span a few chunks only
  opts.gap_threshold_bytes = 64;
  opts.read_cache_bytes = 1024;
  auto store = OpenStore(opts);

  // Two batches with interleaved key coverage, as produced by two merge
  // epochs (§5.2 Fig. 7 setup).
  for (int k = 0; k < 50; ++k) {
    ASSERT_TRUE(store->AppendChunk(MakeChunk(PaddedNum(k), 2, 10, "b1_")).ok());
  }
  ASSERT_TRUE(store->FinishBatch().ok());
  for (int k = 0; k < 50; k += 2) {
    ASSERT_TRUE(store->AppendChunk(MakeChunk(PaddedNum(k), 2, 10, "b2_")).ok());
  }
  ASSERT_TRUE(store->FinishBatch().ok());

  std::vector<std::string> keys;
  for (int k = 0; k < 50; k += 3) keys.push_back(PaddedNum(k));
  ASSERT_TRUE(store->PrepareQueries(keys).ok());
  for (int k = 0; k < 50; k += 3) {
    auto c = store->Query(PaddedNum(k));
    ASSERT_TRUE(c.ok()) << "mode=" << ReadModeName(GetParam()) << " k=" << k;
    ASSERT_EQ(c->entries.size(), 2u);
    // Even keys were overwritten in batch 2.
    EXPECT_EQ(c->entries[0].v2, (k % 2 == 0 ? "b2_0" : "b1_0"));
  }
  EXPECT_GT(store->stats().queries, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllModes, ReadModeTest,
                         ::testing::Values(ReadMode::kIndexOnly,
                                           ReadMode::kSingleFixedWindow,
                                           ReadMode::kMultiFixedWindow,
                                           ReadMode::kMultiDynamicWindow),
                         [](const auto& info) {
                           std::string name = ReadModeName(info.param);
                           for (auto& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

TEST_F(MRBGStoreTest, DynamicWindowBatchesAdjacentQueries) {
  // With sorted queries over densely packed chunks, the dynamic window
  // should need far fewer I/O reads than index-only.
  auto run = [&](ReadMode mode, const std::string& subdir) {
    MRBGStoreOptions opts;
    opts.read_mode = mode;
    auto s = MRBGStore::Open(JoinPath(dir_, subdir), opts);
    EXPECT_TRUE(s.ok());
    auto& store = s.value();
    for (int k = 0; k < 200; ++k) {
      EXPECT_TRUE(store->AppendChunk(MakeChunk(PaddedNum(k), 4)).ok());
    }
    EXPECT_TRUE(store->FinishBatch().ok());
    std::vector<std::string> keys;
    for (int k = 0; k < 200; ++k) keys.push_back(PaddedNum(k));
    EXPECT_TRUE(store->PrepareQueries(keys).ok());
    for (int k = 0; k < 200; ++k) {
      EXPECT_TRUE(store->Query(PaddedNum(k)).ok());
    }
    return store->stats();
  };
  auto dyn = run(ReadMode::kMultiDynamicWindow, "dyn");
  auto idx = run(ReadMode::kIndexOnly, "idx");
  EXPECT_EQ(idx.io_reads, 200u);
  EXPECT_LT(dyn.io_reads, idx.io_reads / 4);
  EXPECT_GT(dyn.cache_hits, 0u);
}

TEST_F(MRBGStoreTest, SingleWindowThrashesAcrossBatchesDynamicDoesNot) {
  // Alternating queries across two batches: a single window reloads
  // constantly, multi windows do not (§5.2 motivation, Table 4).
  auto run = [&](ReadMode mode, const std::string& subdir) {
    MRBGStoreOptions opts;
    opts.read_mode = mode;
    opts.fixed_window_bytes = 4096;
    auto s = MRBGStore::Open(JoinPath(dir_, subdir), opts);
    EXPECT_TRUE(s.ok());
    auto& store = s.value();
    // Batch 1: odd keys; batch 2: even keys -> query order alternates
    // between batches.
    for (int k = 1; k < 100; k += 2) {
      EXPECT_TRUE(store->AppendChunk(MakeChunk(PaddedNum(k), 4)).ok());
    }
    EXPECT_TRUE(store->FinishBatch().ok());
    for (int k = 0; k < 100; k += 2) {
      EXPECT_TRUE(store->AppendChunk(MakeChunk(PaddedNum(k), 4)).ok());
    }
    EXPECT_TRUE(store->FinishBatch().ok());
    std::vector<std::string> keys;
    for (int k = 0; k < 100; ++k) keys.push_back(PaddedNum(k));
    EXPECT_TRUE(store->PrepareQueries(keys).ok());
    for (int k = 0; k < 100; ++k) {
      EXPECT_TRUE(store->Query(PaddedNum(k)).ok());
    }
    return store->stats();
  };
  auto single = run(ReadMode::kSingleFixedWindow, "single");
  auto multi = run(ReadMode::kMultiDynamicWindow, "multi");
  EXPECT_LT(multi.io_reads, single.io_reads);
  EXPECT_LT(multi.bytes_read, single.bytes_read);
}

TEST_F(MRBGStoreTest, StatsAccounting) {
  auto store = OpenStore();
  ASSERT_TRUE(store->AppendChunk(MakeChunk("a", 1)).ok());
  EXPECT_EQ(store->stats().chunks_appended, 1u);
  EXPECT_GT(store->stats().bytes_appended, 0u);
  store->ResetStats();
  EXPECT_EQ(store->stats().chunks_appended, 0u);
}

TEST_F(MRBGStoreTest, ReloadRestoresStateFromDisk) {
  auto store = OpenStore();
  ASSERT_TRUE(store->AppendChunk(MakeChunk("a", 2)).ok());
  ASSERT_TRUE(store->FinishBatch().ok());
  ASSERT_TRUE(store->Reload().ok());
  EXPECT_EQ(store->num_chunks(), 1u);
  ASSERT_TRUE(store->PrepareQueries({"a"}).ok());
  EXPECT_TRUE(store->Query("a").ok());
}

TEST_F(MRBGStoreTest, LargeValuesSpanAppendBufferFlushes) {
  MRBGStoreOptions opts;
  opts.append_buffer_bytes = 512;  // force frequent flushes
  auto store = OpenStore(opts);
  std::string big(2000, 'x');
  for (int k = 0; k < 10; ++k) {
    Chunk c;
    c.key = PaddedNum(k);
    c.entries.push_back(ChunkEntry{1, big});
    ASSERT_TRUE(store->AppendChunk(c).ok());
  }
  ASSERT_TRUE(store->FinishBatch().ok());
  ASSERT_TRUE(store->PrepareQueries({PaddedNum(5)}).ok());
  auto c = store->Query(PaddedNum(5));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->entries[0].v2, big);
}

// ---------------------------------------------------------------------------
// Log-structured layout
// ---------------------------------------------------------------------------

class LogStructuredStoreTest : public MRBGStoreTest {
 protected:
  /// Tiny segments so a handful of batches forces rotation; waste floor at
  /// zero so compaction thresholds are reachable with test-sized data.
  static MRBGStoreOptions LsOpts(size_t segment_target = 1024) {
    MRBGStoreOptions o;
    o.segment_target_bytes = segment_target;
    o.compact_min_wasted_bytes = 0;
    return o;
  }

  /// `rounds` overwrite rounds over `nkeys` keys, one batch per round.
  static void WriteRounds(MRBGStore* store, int rounds, int nkeys) {
    for (int r = 0; r < rounds; ++r) {
      for (int k = 0; k < nkeys; ++k) {
        ASSERT_TRUE(store
                        ->AppendChunk(MakeChunk(PaddedNum(k), 3, 100,
                                                "r" + std::to_string(r) + "_"))
                        .ok());
      }
      ASSERT_TRUE(store->FinishBatch().ok());
    }
  }

  /// Every key must hold its round-`r` value; `gone` keys must be absent.
  static void ExpectRound(MRBGStore* store, int r, int nkeys,
                          const std::vector<int>& gone = {}) {
    std::vector<std::string> keys;
    for (int k = 0; k < nkeys; ++k) keys.push_back(PaddedNum(k));
    ASSERT_TRUE(store->PrepareQueries(keys).ok());
    for (int k = 0; k < nkeys; ++k) {
      bool removed =
          std::find(gone.begin(), gone.end(), k) != gone.end();
      auto c = store->Query(PaddedNum(k));
      if (removed) {
        EXPECT_TRUE(c.status().IsNotFound()) << "k=" << k;
      } else {
        ASSERT_TRUE(c.ok()) << "k=" << k << ": " << c.status().ToString();
        EXPECT_EQ(c->entries[0].v2, "r" + std::to_string(r) + "_0")
            << "k=" << k;
      }
    }
  }
};

TEST_F(LogStructuredStoreTest, PersistsAcrossReopenWithRotation) {
  {
    auto store = OpenStore(LsOpts());
    WriteRounds(store.get(), 4, 10);
    EXPECT_GT(store->num_segments(), 1u);  // tiny target forced rotation
    ASSERT_TRUE(store->Close().ok());
  }
  ASSERT_TRUE(FileExists(JoinPath(dir_, "store/MANIFEST")));
  // Reopen with default options: the on-disk MANIFEST names the segments.
  auto store = OpenStore();
  EXPECT_EQ(store->num_chunks(), 10u);
  ExpectRound(store.get(), 3, 10);
}

TEST_F(LogStructuredStoreTest, TombstoneSurvivesIndexRebuild) {
  {
    auto store = OpenStore(LsOpts());
    WriteRounds(store.get(), 2, 6);
    ASSERT_TRUE(store->RemoveChunk(PaddedNum(2)).ok());
    ASSERT_TRUE(store->FinishBatch().ok());
    EXPECT_GT(store->stats().tombstones_appended, 0u);
    ASSERT_TRUE(store->Close().ok());
  }
  // The index is rebuilt by scanning the segments: the delete must come
  // back as a delete, not resurrect the round-1 version.
  auto store = OpenStore();
  EXPECT_EQ(store->num_chunks(), 5u);
  ExpectRound(store.get(), 1, 6, /*gone=*/{2});
}

TEST_F(LogStructuredStoreTest, LatestVersionWinsAcrossSegments) {
  auto store = OpenStore(LsOpts(512));
  WriteRounds(store.get(), 6, 4);
  ASSERT_GT(store->num_segments(), 2u);
  ExpectRound(store.get(), 5, 4);
  ASSERT_TRUE(store->Close().ok());
  auto reopened = OpenStore();
  ExpectRound(reopened.get(), 5, 4);
}

TEST_F(LogStructuredStoreTest, CompactIfNeededReclaimsWaste) {
  auto store = OpenStore(LsOpts(512));
  WriteRounds(store.get(), 8, 8);
  uint64_t wasted_before = store->wasted_bytes();
  uint64_t bytes_before = store->file_bytes();
  EXPECT_GT(wasted_before, 0u);
  ASSERT_TRUE(store->CompactIfNeeded().ok());
  auto st = store->stats();
  EXPECT_GE(st.compaction_passes, 1u);
  EXPECT_GT(st.compaction_bytes_reclaimed, 0u);
  EXPECT_LT(store->file_bytes(), bytes_before);
  EXPECT_LT(store->wasted_bytes(), wasted_before);
  ExpectRound(store.get(), 7, 8);
  // Still writable, and the result survives a reopen.
  WriteRounds(store.get(), 1, 8);  // round 0 values again
  ASSERT_TRUE(store->Close().ok());
  auto reopened = OpenStore();
  ExpectRound(reopened.get(), 0, 8);
}

TEST_F(LogStructuredStoreTest, FullCompactCollapsesSegments) {
  auto store = OpenStore(LsOpts(512));
  WriteRounds(store.get(), 6, 8);
  ASSERT_TRUE(store->RemoveChunk(PaddedNum(3)).ok());
  size_t segs_before = store->num_segments();
  ASSERT_TRUE(store->Compact().ok());
  EXPECT_LT(store->num_segments(), segs_before);
  EXPECT_EQ(store->num_chunks(), 7u);
  ExpectRound(store.get(), 5, 8, /*gone=*/{3});
}

TEST_F(LogStructuredStoreTest, BackgroundCompactionAtBatchBoundaries) {
  MRBGStoreOptions opts = LsOpts(512);
  opts.background_compaction = true;
  opts.compact_wasted_ratio = 0.1;
  auto store = OpenStore(opts);
  WriteRounds(store.get(), 10, 8);
  store->WaitForCompaction();
  EXPECT_GE(store->stats().compaction_passes, 1u);
  ExpectRound(store.get(), 9, 8);
  ASSERT_TRUE(store->Close().ok());
  auto reopened = OpenStore(opts);
  ExpectRound(reopened.get(), 9, 8);
}

TEST_F(LogStructuredStoreTest, SnapshotIsFrozenAgainstLaterAppends) {
  auto store = OpenStore(LsOpts(512));
  WriteRounds(store.get(), 3, 8);
  std::string snap = JoinPath(dir_, "snap");
  std::vector<std::string> files;
  ASSERT_TRUE(store->SnapshotInto(snap, &files).ok());
  EXPECT_FALSE(files.empty());
  // Keep appending to the source: the snapshot must not see any of it,
  // even though it shares inodes with the source's segments.
  WriteRounds(store.get(), 2, 8);
  ASSERT_TRUE(store->RemoveChunk(PaddedNum(0)).ok());
  ASSERT_TRUE(store->FinishBatch().ok());

  auto snap_store = MRBGStore::Open(snap);
  ASSERT_TRUE(snap_store.ok()) << snap_store.status().ToString();
  EXPECT_EQ(snap_store.value()->num_chunks(), 8u);
  ExpectRound(snap_store.value().get(), 2, 8);
  // And the source still serves its latest state.
  ExpectRound(store.get(), 1, 8, /*gone=*/{0});
}

TEST_F(LogStructuredStoreTest, ListStoreFilesNamesManifestAndSegments) {
  // Nothing durable yet.
  auto empty = MRBGStore::ListStoreFiles(JoinPath(dir_, "nothing"));
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());

  {
    auto store = OpenStore(LsOpts());
    WriteRounds(store.get(), 2, 6);
    ASSERT_TRUE(store->Close().ok());
  }
  auto ls = MRBGStore::ListStoreFiles(JoinPath(dir_, "store"));
  ASSERT_TRUE(ls.ok());
  bool has_manifest = false, has_segment = false;
  for (const auto& f : *ls) {
    if (f.find("MANIFEST") != std::string::npos) has_manifest = true;
    if (f.find("seg-") != std::string::npos) has_segment = true;
  }
  EXPECT_TRUE(has_manifest);
  EXPECT_TRUE(has_segment);
}

// The retired single-file layout (mrbg.dat + mrbg.idx) has no migration:
// opening a directory that holds either file fails and deletes nothing.
TEST_F(LogStructuredStoreTest, OpenRefusesSingleFileLayout) {
  for (const char* name : {"mrbg.idx", "mrbg.dat"}) {
    const std::string dir = JoinPath(dir_, std::string("old_") + name);
    const std::string path = JoinPath(dir, name);
    ASSERT_TRUE(CreateDirs(dir).ok());
    ASSERT_TRUE(WriteStringToFile(path, "single-file layout bytes").ok());
    auto store = MRBGStore::Open(dir, LsOpts());
    ASSERT_FALSE(store.ok()) << name;
    EXPECT_TRUE(store.status().IsCorruption()) << store.status().ToString();
    EXPECT_NE(store.status().message().find(name), std::string::npos)
        << store.status().ToString();
    auto left = ReadFileToString(path);
    ASSERT_TRUE(left.ok()) << name;
    EXPECT_EQ(*left, "single-file layout bytes");
    auto files = ListFiles(dir);
    ASSERT_TRUE(files.ok());
    EXPECT_EQ(files->size(), 1u) << name;
  }
}

// Crash injection at each compaction stage (the "mrbg/<stage>" crash
// points): a kill between the segment rewrite and the index/manifest swap
// must recover to the old state or the new state, never a torn mixture.
class CompactionCrashTest : public LogStructuredStoreTest,
                            public ::testing::WithParamInterface<const char*> {
 protected:
  void TearDown() override {
    fault::FaultInjector::Instance()->Reset();
    LogStructuredStoreTest::TearDown();
  }
};

TEST_P(CompactionCrashTest, RecoversToConsistentState) {
  const std::string point = std::string("mrbg/") + GetParam();
  MRBGStoreOptions opts = LsOpts(512);
  {
    auto store = OpenStore(opts);
    WriteRounds(store.get(), 6, 10);
    ASSERT_TRUE(store->RemoveChunk(PaddedNum(5)).ok());
    ASSERT_TRUE(store->FinishBatch().ok());
    auto* injector = fault::FaultInjector::Instance();
    ASSERT_TRUE(
        injector->LoadSpec("op=crash,kind=crash,times=-1,path=" + point).ok());
    ASSERT_TRUE(store->Compact().ok());  // abandoned at `point`
    int fired = 0;
    for (const auto& event : injector->EventLog()) {
      if (event.find(point) != std::string::npos) ++fired;
    }
    EXPECT_EQ(fired, 1) << injector->EventLogText();
    injector->Reset();
    // The crashed store must stop touching disk, like a killed process.
    ASSERT_TRUE(store->Close().ok());
  }
  // Recovery: reopen and verify the full logical state, whichever side of
  // the crash point the on-disk files landed on.
  auto store = OpenStore(LsOpts(512));
  EXPECT_EQ(store->num_chunks(), 9u);
  ExpectRound(store.get(), 5, 10, /*gone=*/{5});
  // And the recovered store compacts + writes normally.
  ASSERT_TRUE(store->Compact().ok());
  WriteRounds(store.get(), 1, 10);
  ExpectRound(store.get(), 0, 10);
}

INSTANTIATE_TEST_SUITE_P(AllStages, CompactionCrashTest,
                         ::testing::Values("rewrite", "rename", "manifest"));

}  // namespace
}  // namespace i2mr
