#ifndef UNCHAINED_RA_TUPLE_H_
#define UNCHAINED_RA_TUPLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>

#include "base/symbols.h"

namespace datalog {

/// A constant tuple over a relation schema (Section 2): a fixed-length
/// sequence of domain values. Column identity is positional.
///
/// Up to `kInline` values are stored inside the object; a longer tuple
/// spills to one heap array. Nearly every relation of a Datalog program
/// has arity <= 4, so building, copying, hashing and storing its tuples
/// allocates nothing. Equality and `<` are those of the value sequence
/// (lexicographic, as for `std::vector`), so hashes, hash-set iteration
/// orders and `Relation::Sorted()` do not depend on where values live.
class Tuple {
 public:
  using iterator = Value*;
  using const_iterator = const Value*;

  static constexpr size_t kInline = 4;

  Tuple() noexcept { SetEmptyInline(); }
  /// `n` zero values.
  explicit Tuple(size_t n) : Tuple(n, Value{0}) {}
  Tuple(size_t n, Value v) {
    SetEmptyInline();
    Reserve(n);
    std::fill_n(data(), n, v);
    size_ = static_cast<uint32_t>(n);
  }
  Tuple(std::initializer_list<Value> values)
      : Tuple(values.begin(), values.end()) {}
  template <std::forward_iterator It>
  Tuple(It first, It last) {
    SetEmptyInline();
    const auto n = static_cast<size_t>(std::distance(first, last));
    Reserve(n);
    std::copy(first, last, data());
    size_ = static_cast<uint32_t>(n);
  }

  Tuple(const Tuple& o) {
    SetEmptyInline();
    if (o.on_heap()) {
      Reserve(o.size_);
      std::copy(o.begin(), o.end(), data());
    } else {
      std::copy_n(o.inline_, kInline, inline_);
    }
    size_ = o.size_;
  }
  Tuple(Tuple&& o) noexcept {
    if (o.on_heap()) {
      heap_ = o.heap_;
      cap_ = o.cap_;
      size_ = o.size_;
      o.SetEmptyInline();
    } else {
      SetEmptyInline();
      std::copy_n(o.inline_, kInline, inline_);
      size_ = o.size_;
      o.size_ = 0;
    }
  }
  Tuple& operator=(const Tuple& o) {
    if (this != &o) {
      size_ = 0;
      Reserve(o.size());
      std::copy(o.begin(), o.end(), data());
      size_ = o.size_;
    }
    return *this;
  }
  Tuple& operator=(Tuple&& o) noexcept {
    if (this == &o) return *this;
    if (o.on_heap()) {
      if (on_heap()) delete[] heap_;
      heap_ = o.heap_;
      cap_ = o.cap_;
      size_ = o.size_;
      o.SetEmptyInline();
    } else {
      // Fits whichever buffer this tuple already has.
      std::copy_n(o.inline_, o.size_, data());
      size_ = o.size_;
      o.size_ = 0;
    }
    return *this;
  }
  ~Tuple() {
    if (on_heap()) delete[] heap_;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  Value* data() { return on_heap() ? heap_ : inline_; }
  const Value* data() const { return on_heap() ? heap_ : inline_; }
  iterator begin() { return data(); }
  iterator end() { return data() + size_; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size_; }
  Value& operator[](size_t i) { return data()[i]; }
  const Value& operator[](size_t i) const { return data()[i]; }

  void clear() { size_ = 0; }
  void reserve(size_t n) { Reserve(n); }
  void push_back(Value v) {
    if (size_ == cap_) Reserve(2 * static_cast<size_t>(cap_));
    data()[size_++] = v;
  }

  friend bool operator==(const Tuple& a, const Tuple& b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }
  friend bool operator<(const Tuple& a, const Tuple& b) {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                        b.end());
  }

 private:
  bool on_heap() const { return cap_ > kInline; }

  /// Makes the inline buffer the live one, fully initialized, and empty.
  /// Any heap array must already be released or handed off.
  void SetEmptyInline() {
    for (size_t i = 0; i < kInline; ++i) inline_[i] = 0;
    cap_ = kInline;
    size_ = 0;
  }

  /// Ensures capacity for `n` values, keeping the first `size_`.
  void Reserve(size_t n) {
    if (n <= cap_) return;
    Value* grown = new Value[n];
    std::copy_n(data(), size_, grown);
    if (on_heap()) delete[] heap_;
    heap_ = grown;
    cap_ = static_cast<uint32_t>(n);
  }

  /// `inline_` is live while `cap_ == kInline`, `heap_` (an array of
  /// `cap_` values) otherwise.
  union {
    Value inline_[kInline];
    Value* heap_;
  };
  uint32_t size_ = 0;
  uint32_t cap_ = kInline;
};

static_assert(sizeof(Tuple) <= 32, "a Tuple is at most 32 bytes");

/// FNV-1a style hash over the tuple contents, usable as the hasher of
/// `std::unordered_set<Tuple>`.
struct TupleHash {
  size_t operator()(const Tuple& t) const {
    uint64_t h = 1469598103934665603ull;
    for (Value v : t) {
      h ^= static_cast<uint64_t>(static_cast<uint32_t>(v));
      h *= 1099511628211ull;
    }
    return static_cast<size_t>(h);
  }
};

}  // namespace datalog

#endif  // UNCHAINED_RA_TUPLE_H_
