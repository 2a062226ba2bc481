// ResultStore: the preserved Reduce outputs <K3, V3> of one reduce
// partition. Incremental runs patch only the changed outputs; the
// accumulator-Reduce fast path (§3.5) folds deltas into it directly.
// Also records, per reduce instance K2, which K3s it emitted, so that
// re-reducing an instance replaces exactly its previous outputs.
#ifndef I2MR_CORE_RESULT_STORE_H_
#define I2MR_CORE_RESULT_STORE_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/kv.h"
#include "common/status.h"

namespace i2mr {

class ResultStore {
 public:
  /// Open a store backed by `path` (loads existing contents if present).
  static StatusOr<ResultStore> Open(const std::string& path);

  /// Replace the outputs of reduce instance `k2` with `outputs`.
  void SetInstanceOutputs(const std::string& k2, const std::vector<KV>& outputs);

  /// Remove all outputs of reduce instance `k2` (instance disappeared).
  void EraseInstance(const std::string& k2);

  /// Direct access for the accumulator path (K3 keyed, no instance map).
  void Put(const std::string& k3, const std::string& v3);
  /// Put for keys arriving in ascending order: an end-hinted insert, O(1)
  /// amortized instead of a tree search (bulk builds from sorted input).
  void PutSorted(const std::string& k3, const std::string& v3);
  const std::string* Get(const std::string& k3) const;

  /// All current results, sorted by K3.
  std::vector<KV> Snapshot() const;

  /// Visit results with begin <= K3 < end in key order, without copying
  /// the store (the sharded serving layer's per-shard scan primitive).
  /// Empty `end` means unbounded. Return false from `fn` to stop early.
  void VisitRange(const std::string& begin, const std::string& end,
                  const std::function<bool(const KV&)>& fn) const;

  size_t size() const { return results_.size(); }

  Status Save() const { return SaveAs(path_); }

  /// Persist to an explicit path (atomic write-temp + rename). Lets a
  /// caller snapshot the store somewhere other than its serving path.
  Status SaveAs(const std::string& path) const;

 private:
  explicit ResultStore(std::string path) : path_(std::move(path)) {}

  std::string path_;
  std::map<std::string, std::string> results_;              // K3 -> V3
  std::map<std::string, std::vector<std::string>> by_inst_;  // K2 -> [K3]
};

}  // namespace i2mr

#endif  // I2MR_CORE_RESULT_STORE_H_
