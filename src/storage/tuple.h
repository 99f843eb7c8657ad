#ifndef DCDATALOG_STORAGE_TUPLE_H_
#define DCDATALOG_STORAGE_TUPLE_H_

#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"

namespace dcdatalog {

/// Maximum tuple arity the engine supports. The paper's workloads peak at 3
/// columns (weighted edges, APSP paths); 8 leaves slack for user programs
/// and bounds the stack scratch the merge paths build rows in.
inline constexpr uint32_t kMaxArity = 8;

/// Non-owning view of one row: `arity` consecutive 64-bit words. Cheap to
/// copy; valid only while the backing storage is alive and unmoved.
struct TupleRef {
  const uint64_t* data = nullptr;
  uint32_t arity = 0;

  uint64_t operator[](size_t i) const {
    DCD_DCHECK(i < arity);
    return data[i];
  }

  uint64_t Hash() const { return HashWords(data, arity); }

  friend bool operator==(const TupleRef& a, const TupleRef& b) {
    return a.arity == b.arity &&
           std::memcmp(a.data, b.data, a.arity * sizeof(uint64_t)) == 0;
  }
};

/// Owning dense batch of same-arity tuples: `arity` 64-bit words per tuple,
/// packed back to back — the one tuple container of the data path (gather
/// staging, RecursiveTable::MergeBatch input, deltas and their per-worker
/// snapshots, morsel slices). A tuple costs exactly its arity in words, and
/// a whole ring block unpacks with one copy. clear() keeps the capacity, so
/// a batch reused across iterations stops allocating once it has held its
/// largest iteration.
class TupleBatch {
 public:
  TupleBatch() = default;
  explicit TupleBatch(uint32_t arity) : arity_(arity) {}

  /// Literal batch, one inner list per tuple (tests and benches).
  TupleBatch(uint32_t arity,
             std::initializer_list<std::initializer_list<uint64_t>> tuples)
      : arity_(arity) {
    for (const auto& tuple : tuples) Append(tuple);
  }

  uint32_t arity() const { return arity_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  TupleRef operator[](size_t i) const {
    DCD_DCHECK(i < size_);
    return TupleRef{words_.data() + i * arity_, arity_};
  }

  uint64_t* MutableRow(size_t i) {
    DCD_DCHECK(i < size_);
    return words_.data() + i * arity_;
  }

  /// Appends one tuple of arity() words.
  void Append(const uint64_t* tuple) { Append(tuple, 1); }

  /// Appends `count` tuples packed densely at `tuples` (arity() words each).
  void Append(const uint64_t* tuples, size_t count) {
    const size_t at = words_.size();
    const size_t n = count * arity_;
    words_.resize(at + n);
    std::memcpy(words_.data() + at, tuples, n * sizeof(uint64_t));
    size_ += count;
  }

  void Append(TupleRef ref) {
    DCD_DCHECK(ref.arity == arity_);
    Append(ref.data);
  }

  void Append(std::initializer_list<uint64_t> tuple) {
    DCD_DCHECK(tuple.size() == arity_);
    Append(tuple.begin());
  }

  void clear() {
    words_.clear();
    size_ = 0;
  }

  /// Empties the batch and sets a new arity, keeping the capacity.
  void Reset(uint32_t arity) {
    clear();
    arity_ = arity;
  }

  void swap(TupleBatch& other) noexcept {
    words_.swap(other.words_);
    std::swap(size_, other.size_);
    std::swap(arity_, other.arity_);
  }

 private:
  std::vector<uint64_t> words_;
  size_t size_ = 0;
  uint32_t arity_ = 0;
};

}  // namespace dcdatalog

#endif  // DCDATALOG_STORAGE_TUPLE_H_
