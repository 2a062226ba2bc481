// MRBGraph chunk format (paper §3.4, Fig. 4). A chunk holds all preserved
// intermediate edges (K2, MK, V2) of one Reduce instance, stored
// contiguously:
//
//   [u32 magic][u32 payload_len][payload][u32 checksum-of-payload]
//   payload = [u32 key_len][key][u32 count] ([u64 mk][u32 vlen][v2])*
//
// The magic is 0x4d524232 ("MRB2") for a chunk and 0x4d525432 ("MRT2") for
// a tombstone, whose payload is the key alone. The checksum is Checksum32
// (XXH32, common/hash.h) of the payload. Frames of the first format (magics
// "MRBG"/"MRBT", checksum = low 32 bits of Hash64) are refused as
// Corruption: there is no reader for them.
//
// Chunks are the unit of read/write/merge in the MRBG-Store.
#ifndef I2MR_MRBG_CHUNK_H_
#define I2MR_MRBG_CHUNK_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace i2mr {

/// One MRBGraph edge value within a chunk: the source Map instance (MK) and
/// the intermediate value V2 it contributed to this Reduce instance.
struct ChunkEntry {
  uint64_t mk = 0;
  std::string v2;

  friend bool operator==(const ChunkEntry& a, const ChunkEntry& b) {
    return a.mk == b.mk && a.v2 == b.v2;
  }
};

/// All preserved edges of one Reduce instance (identified by K2).
struct Chunk {
  std::string key;  // K2
  std::vector<ChunkEntry> entries;

  bool empty() const { return entries.empty(); }
};

/// A change to the MRBGraph produced by incremental Map computation:
/// an edge insertion/update (deleted=false) or an edge deletion ('-').
struct DeltaEdge {
  /// Set on cross-shard boundary edges, which travel ungrouped. A merge
  /// group's edges leave it empty: the group carries the key.
  std::string k2;
  uint64_t mk = 0;
  std::string v2;
  bool deleted = false;
};

/// Serialize `chunk` (appends to *out). Returns the encoded length.
uint32_t EncodeChunk(const Chunk& chunk, std::string* out);

/// Parse one chunk from `data` (which must start at a chunk boundary and
/// contain the complete chunk). Verifies magic and checksum.
Status DecodeChunk(std::string_view data, Chunk* chunk);

/// Byte length of the encoding of `chunk` without encoding it.
uint32_t EncodedChunkLength(const Chunk& chunk);

/// Serialize a tombstone frame for `key` (appends to *out): same CRC
/// framing as a chunk but with the tombstone magic and a zero-size value
/// payload (just the key). The log-structured store appends one to delete
/// a chunk durably; a sequential scan replays it as an index erase.
/// Returns the encoded length.
uint32_t EncodeTombstone(const std::string& key, std::string* out);

/// One frame of the append-only chunk log, parsed in place by the
/// log-structured store's open-time scan: either a live chunk version
/// (`tombstone == false`; the `length`-byte prefix decodes with
/// DecodeChunk) or a zero-size tombstone deleting `key`.
struct ScannedFrame {
  std::string key;
  uint32_t length = 0;  // total frame bytes (header + payload + crc)
  bool tombstone = false;
};

/// Parse the frame starting at data[0]. Verifies magic, bounds and
/// checksum. Returns NotFound on empty input (clean end of scan),
/// Corruption on a torn or garbled frame.
Status ScanFrame(std::string_view data, ScannedFrame* frame);

/// The reduce-side merge of one delta group into its preserved chunk
/// (paper §3.3-3.4), as one pass over the chunk's encoded frame. Keeps
/// scratch buffers across calls; one merger per thread.
class ChunkMerger {
 public:
  /// Merge `deltas` (all for K2 `key`, in emission order) into `old_frame`,
  /// the preserved chunk's frame (empty: no preserved chunk). The old frame
  /// is verified as DecodeChunk verifies it, and must hold `key`.
  ///
  /// Semantics per MK (paper §3.3: "checks duplicates, inserts if no
  /// duplicate exists, else updates"): the last delta for an MK wins — a
  /// deletion drops the entry, an insertion upserts its V2. An upserted MK
  /// the chunk holds keeps its position (the last one, should the chunk hold
  /// it twice); new MKs follow the old entries in first-insertion order.
  ///
  /// Writes the merged frame to *frame, copying untouched entry bytes as
  /// they are, and the merged V2s in entry order to *values as views into
  /// *frame. Both are left empty when no entry remains.
  Status Merge(std::string_view key, std::string_view old_frame,
               const std::vector<DeltaEdge>& deltas, std::string* frame,
               std::vector<std::string_view>* values);

 private:
  /// The resolved effect of one MK's deltas.
  struct Effect {
    uint64_t mk = 0;
    uint32_t last = 0;          // index of the MK's last delta
    uint32_t first_insert = 0;  // index of its first insertion, or kNone
    uint32_t hit = 0;           // payload offset of the entry it hits, or kNone
    uint32_t old_vlen = 0;      // V2 length of that entry
  };
  static constexpr uint32_t kNone = ~0u;

  Effect* FindEffect(uint64_t mk);

  std::vector<Effect> effects_;  // sorted by MK
  std::vector<const Effect*> hits_;  // effects that hit an entry, by offset
  std::vector<const Effect*> news_;  // new MKs, by first insertion
  uint64_t filter_[8] = {};  // 512-bit Bloom filter of the effect MKs
};

}  // namespace i2mr

#endif  // I2MR_MRBG_CHUNK_H_
