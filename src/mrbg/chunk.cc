#include "mrbg/chunk.h"

#include <algorithm>

#include "common/codec.h"
#include "common/hash.h"

namespace i2mr {
namespace {

constexpr uint32_t kChunkMagic = 0x4d524232;      // "MRB2"
constexpr uint32_t kTombstoneMagic = 0x4d525432;  // "MRT2"

// Frame = [u32 magic][u32 payload_len][payload][u32 checksum].
constexpr size_t kFrameHeader = 8;
constexpr size_t kFrameOverhead = kFrameHeader + 4;
// Entry = [u64 mk][u32 vlen][v2].
constexpr size_t kEntryHeader = 12;

/// Start a frame at the end of *out; returns the frame's start offset.
size_t BeginFrame(uint32_t magic, std::string* out) {
  size_t start = out->size();
  PutFixed32(out, magic);
  PutFixed32(out, 0);  // payload_len, set by EndFrame
  return start;
}

/// Close the frame begun at `start`: fill in its length, append the
/// checksum and return the frame's total length.
uint32_t EndFrame(size_t start, std::string* out) {
  const size_t payload_len = out->size() - start - kFrameHeader;
  EncodeFixed32(out->data() + start + 4, static_cast<uint32_t>(payload_len));
  PutFixed32(out, Checksum32(out->data() + start + kFrameHeader, payload_len));
  return static_cast<uint32_t>(out->size() - start);
}

/// Check a frame's magic, length and checksum; on success *payload views
/// its payload and *magic holds the magic.
Status CheckFrame(std::string_view data, uint32_t* magic,
                  std::string_view* payload) {
  if (data.size() < kFrameHeader) return Status::Corruption("truncated frame");
  *magic = DecodeFixed32(data.data());
  if (*magic != kChunkMagic && *magic != kTombstoneMagic) {
    return Status::Corruption("bad frame magic");
  }
  const uint32_t payload_len = DecodeFixed32(data.data() + 4);
  if (data.size() - kFrameHeader < uint64_t{payload_len} + 4) {
    return Status::Corruption("truncated frame");
  }
  *payload = data.substr(kFrameHeader, payload_len);
  if (DecodeFixed32(data.data() + kFrameHeader + payload_len) !=
      Checksum32(*payload)) {
    return Status::Corruption("frame checksum mismatch");
  }
  return Status::OK();
}

}  // namespace

uint32_t EncodedChunkLength(const Chunk& chunk) {
  uint32_t len = kFrameOverhead;
  len += 4 + static_cast<uint32_t>(chunk.key.size());  // key
  len += 4;                                             // count
  for (const auto& e : chunk.entries) {
    len += kEntryHeader + static_cast<uint32_t>(e.v2.size());
  }
  return len;
}

uint32_t EncodeChunk(const Chunk& chunk, std::string* out) {
  size_t start = BeginFrame(kChunkMagic, out);
  PutLengthPrefixed(out, chunk.key);
  PutFixed32(out, static_cast<uint32_t>(chunk.entries.size()));
  for (const auto& e : chunk.entries) {
    PutFixed64(out, e.mk);
    PutLengthPrefixed(out, e.v2);
  }
  return EndFrame(start, out);
}

Status DecodeChunk(std::string_view data, Chunk* chunk) {
  uint32_t magic;
  std::string_view payload;
  I2MR_RETURN_IF_ERROR(CheckFrame(data, &magic, &payload));
  if (magic != kChunkMagic) return Status::Corruption("bad chunk magic");
  Decoder body(payload);
  chunk->entries.clear();
  if (!body.GetLengthPrefixed(&chunk->key)) {
    return Status::Corruption("bad chunk key");
  }
  uint32_t count;
  if (!body.GetFixed32(&count)) return Status::Corruption("bad chunk count");
  chunk->entries.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    ChunkEntry e;
    if (!body.GetFixed64(&e.mk) || !body.GetLengthPrefixed(&e.v2)) {
      return Status::Corruption("bad chunk entry");
    }
    chunk->entries.push_back(std::move(e));
  }
  if (!body.done()) return Status::Corruption("chunk payload trailing bytes");
  return Status::OK();
}

uint32_t EncodeTombstone(const std::string& key, std::string* out) {
  size_t start = BeginFrame(kTombstoneMagic, out);
  PutLengthPrefixed(out, key);
  return EndFrame(start, out);
}

Status ScanFrame(std::string_view data, ScannedFrame* frame) {
  if (data.empty()) return Status::NotFound("end of log");
  uint32_t magic;
  std::string_view payload;
  I2MR_RETURN_IF_ERROR(CheckFrame(data, &magic, &payload));
  Decoder body(payload);
  if (!body.GetLengthPrefixed(&frame->key)) {
    return Status::Corruption("bad frame key");
  }
  frame->tombstone = magic == kTombstoneMagic;
  frame->length = static_cast<uint32_t>(kFrameOverhead + payload.size());
  return Status::OK();
}

// ---------------------------------------------------------------------------
// ChunkMerger
// ---------------------------------------------------------------------------

namespace {

inline unsigned FilterBit(uint64_t mk) {
  return static_cast<unsigned>((mk * 0x9e3779b97f4a7c15ULL) >> 55);  // 0..511
}

}  // namespace

ChunkMerger::Effect* ChunkMerger::FindEffect(uint64_t mk) {
  const unsigned bit = FilterBit(mk);
  if ((filter_[bit >> 6] >> (bit & 63) & 1) == 0) return nullptr;
  auto it = std::lower_bound(
      effects_.begin(), effects_.end(), mk,
      [](const Effect& e, uint64_t m) { return e.mk < m; });
  return it != effects_.end() && it->mk == mk ? &*it : nullptr;
}

Status ChunkMerger::Merge(std::string_view key, std::string_view old_frame,
                          const std::vector<DeltaEdge>& deltas,
                          std::string* frame,
                          std::vector<std::string_view>* values) {
  frame->clear();
  values->clear();

  // Resolve the group to one effect per MK: sort (MK, delta index) pairs,
  // then fold each MK's run into its last op and first insertion.
  effects_.clear();
  effects_.reserve(deltas.size());
  for (uint32_t i = 0; i < deltas.size(); ++i) {
    Effect e;
    e.mk = deltas[i].mk;
    e.last = i;
    effects_.push_back(e);
  }
  std::sort(effects_.begin(), effects_.end(),
            [](const Effect& a, const Effect& b) {
              return a.mk != b.mk ? a.mk < b.mk : a.last < b.last;
            });
  std::fill(std::begin(filter_), std::end(filter_), 0);
  size_t n_effects = 0;
  for (size_t i = 0; i < effects_.size();) {
    Effect e = effects_[i];
    e.first_insert = kNone;
    e.hit = kNone;
    for (; i < effects_.size() && effects_[i].mk == e.mk; ++i) {
      e.last = effects_[i].last;
      if (e.first_insert == kNone && !deltas[e.last].deleted) {
        e.first_insert = e.last;
      }
    }
    const unsigned bit = FilterBit(e.mk);
    filter_[bit >> 6] |= uint64_t{1} << (bit & 63);
    effects_[n_effects++] = e;
  }
  effects_.resize(n_effects);

  // Pass 1 over the old payload: verify the frame and its structure, and
  // point each effect at the (last) entry holding its MK.
  std::string_view payload;
  uint32_t count = 0;
  size_t entries_off = 0;
  if (!old_frame.empty()) {
    uint32_t magic;
    I2MR_RETURN_IF_ERROR(CheckFrame(old_frame, &magic, &payload));
    if (magic != kChunkMagic) return Status::Corruption("bad chunk magic");
    Decoder body(payload);
    std::string_view old_key;
    if (!body.GetLengthPrefixed(&old_key)) {
      return Status::Corruption("bad chunk key");
    }
    if (!body.GetFixed32(&count)) return Status::Corruption("bad chunk count");
    if (old_key != key) {
      return Status::Corruption("index points to wrong chunk: wanted " +
                                std::string(key) + " got " +
                                std::string(old_key));
    }
    entries_off = payload.size() - body.remaining();
    size_t pos = entries_off;
    for (uint32_t i = 0; i < count; ++i) {
      if (payload.size() - pos < kEntryHeader) {
        return Status::Corruption("bad chunk entry");
      }
      const uint32_t vlen = DecodeFixed32(payload.data() + pos + 8);
      if (payload.size() - pos - kEntryHeader < vlen) {
        return Status::Corruption("bad chunk entry");
      }
      if (Effect* e = FindEffect(DecodeFixed64(payload.data() + pos))) {
        e->hit = static_cast<uint32_t>(pos);
        e->old_vlen = vlen;
      }
      pos += kEntryHeader + vlen;
    }
    if (pos != payload.size()) {
      return Status::Corruption("chunk payload trailing bytes");
    }
  }

  // Size the merged frame exactly (one allocation at most) and order the
  // rewrites by position.
  hits_.clear();
  news_.clear();
  size_t out_payload = payload.empty() ? 4 + key.size() + 4 : payload.size();
  uint32_t out_count = count;
  for (const Effect& e : effects_) {
    const bool keep = !deltas[e.last].deleted;
    if (e.hit != kNone) {
      hits_.push_back(&e);
      out_payload -= e.old_vlen;
      if (keep) {
        out_payload += deltas[e.last].v2.size();
      } else {
        out_payload -= kEntryHeader;
        --out_count;
      }
    } else if (keep) {
      news_.push_back(&e);
      out_payload += kEntryHeader + deltas[e.last].v2.size();
      ++out_count;
    }
  }
  if (out_count == 0) return Status::OK();
  std::sort(hits_.begin(), hits_.end(),
            [](const Effect* a, const Effect* b) { return a->hit < b->hit; });
  std::sort(news_.begin(), news_.end(), [](const Effect* a, const Effect* b) {
    return a->first_insert < b->first_insert;
  });

  // Pass 2: write the merged frame. Runs of untouched entries are copied
  // as they are; hit entries are rewritten or dropped; new MKs go last.
  frame->reserve(kFrameOverhead + out_payload);
  const size_t start = BeginFrame(kChunkMagic, frame);
  PutLengthPrefixed(frame, key);
  PutFixed32(frame, out_count);
  size_t run = entries_off;
  auto put_entry = [&](uint64_t mk, std::string_view v2) {
    PutFixed64(frame, mk);
    PutLengthPrefixed(frame, v2);
  };
  for (const Effect* e : hits_) {
    frame->append(payload.data() + run, e->hit - run);
    run = e->hit + kEntryHeader + e->old_vlen;
    const DeltaEdge& d = deltas[e->last];
    if (!d.deleted) put_entry(e->mk, d.v2);
  }
  if (!payload.empty()) {
    frame->append(payload.data() + run, payload.size() - run);
  }
  for (const Effect* e : news_) put_entry(e->mk, deltas[e->last].v2);
  EndFrame(start, frame);

  // The merged V2s, in entry order.
  values->reserve(out_count);
  const char* p = frame->data() + kFrameHeader + 4 + key.size() + 4;
  for (uint32_t i = 0; i < out_count; ++i) {
    const uint32_t vlen = DecodeFixed32(p + 8);
    values->emplace_back(p + kEntryHeader, vlen);
    p += kEntryHeader + vlen;
  }
  return Status::OK();
}

}  // namespace i2mr
