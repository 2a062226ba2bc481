#include "core/structure_index.h"

#include <algorithm>
#include <iterator>

#include "common/logging.h"
#include "io/record_file.h"

namespace i2mr {
namespace {

bool RecordLess(const KV& a, const DeltaKV& b) {
  return a.key != b.key ? a.key < b.key : a.value < b.value;
}

bool RecordLess(const DeltaKV& a, const KV& b) {
  return a.key != b.key ? a.key < b.key : a.value < b.value;
}

bool SameRecord(const DeltaKV& a, const DeltaKV& b) {
  return a.key == b.key && a.value == b.value;
}

// One distinct record of a batch whose multiplicity in its group changes:
// its copies occupy [lo, lo + before) of the group and `after` remain.
struct Change {
  const DeltaKV* rec;
  size_t lo;
  size_t before;
  size_t after;
};

}  // namespace

void StructureIndex::Build(std::vector<KV> records,
                           const Projector& projector) {
  groups_.clear();
  for (auto& kv : records) {
    std::string dk = projector.Project(kv.key);
    auto it = (!groups_.empty() && groups_.rbegin()->first == dk)
                  ? std::prev(groups_.end())
                  : groups_.try_emplace(groups_.end(), std::move(dk));
    it->second.push_back(std::move(kv));
  }
  for (auto& [dk, group] : groups_) {
    if (!std::is_sorted(group.begin(), group.end())) {
      std::sort(group.begin(), group.end());
    }
  }
}

bool StructureIndex::Apply(const std::vector<DeltaKV>& batch,
                           const Projector& projector) {
  // Bucket the batch by DK, keeping log order within each bucket.
  std::map<std::string, std::vector<const DeltaKV*>> by_dk;
  for (const auto& d : batch) by_dk[projector.Project(d.key)].push_back(&d);

  bool changed = false;
  std::vector<Change> changes;
  for (auto& [dk, ops] : by_dk) {
    // Runs of one record, each still in log order.
    std::stable_sort(ops.begin(), ops.end(),
                     [](const DeltaKV* a, const DeltaKV* b) {
                       return a->key != b->key ? a->key < b->key
                                               : a->value < b->value;
                     });
    auto git = groups_.find(dk);
    Group* group = git != groups_.end() ? &git->second : nullptr;
    changes.clear();
    for (size_t i = 0; i < ops.size();) {
      const DeltaKV& rec = *ops[i];
      size_t lo = 0, count = 0;
      if (group != nullptr) {
        auto range = std::equal_range(
            group->begin(), group->end(), rec,
            [](const auto& a, const auto& b) { return RecordLess(a, b); });
        lo = static_cast<size_t>(range.first - group->begin());
        count = static_cast<size_t>(range.second - range.first);
      }
      const size_t before = count;
      for (; i < ops.size() && SameRecord(*ops[i], rec); ++i) {
        if (ops[i]->op == DeltaOp::kInsert) {
          ++count;
        } else if (count > 0) {
          --count;
        } else {
          LOG_WARN << "delta deletes unknown structure record sk=" << rec.key;
        }
      }
      if (count != before) changes.push_back(Change{&rec, lo, before, count});
    }
    if (changes.empty()) continue;
    changed = true;

    // One linear merge of the group with its changed records.
    if (group == nullptr) group = &groups_[dk];
    Group merged;
    size_t next_size = group->size();
    for (const auto& c : changes) next_size = next_size - c.before + c.after;
    merged.reserve(next_size);
    size_t pos = 0;
    for (const auto& c : changes) {
      std::move(group->begin() + pos, group->begin() + c.lo,
                std::back_inserter(merged));
      for (size_t k = 0; k < c.after; ++k) {
        merged.push_back(KV{c.rec->key, c.rec->value});
      }
      pos = c.lo + c.before;
    }
    std::move(group->begin() + pos, group->end(), std::back_inserter(merged));
    if (merged.empty()) {
      groups_.erase(dk);
    } else {
      group->swap(merged);
    }
  }
  return changed;
}

const StructureIndex::Group* StructureIndex::Find(std::string_view dk) const {
  auto it = groups_.find(dk);
  return it == groups_.end() ? nullptr : &it->second;
}

Status StructureIndex::Write(const std::string& path) const {
  auto w = RecordWriter::Create(path);
  if (!w.ok()) return w.status();
  for (const auto& [dk, group] : groups_) {
    for (const auto& kv : group) I2MR_RETURN_IF_ERROR(w.value()->Add(kv));
  }
  return w.value()->Close();
}

}  // namespace i2mr
