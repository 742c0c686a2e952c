// Non-owning read-only view over a contiguous typed block — the access
// primitive of the frozen storage layer. A Span can sit on top of a
// heap-built std::vector (an index frozen at construction) or straight on
// an mmap'ed snapshot section; the query code consuming it cannot tell the
// difference, which is what makes zero-copy serving possible.
//
// C++17 substrate (std::span is C++20), read-only by design: frozen
// structures are immutable, so there is no mutable variant.

#ifndef FCM_STORAGE_SPAN_H_
#define FCM_STORAGE_SPAN_H_

#include <cstddef>
#include <vector>

#include "common/check.h"

namespace fcm::storage {

template <typename T>
class Span {
 public:
  constexpr Span() = default;
  constexpr Span(const T* data, size_t size) : data_(data), size_(size) {}
  /// Views a vector's contents; the vector must outlive the span.
  Span(const std::vector<T>& v)  // NOLINT: implicit by design.
      : data_(v.data()), size_(v.size()) {}

  const T* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const T& operator[](size_t i) const {
    FCM_CHECK_LT(i, size_);
    return data_[i];
  }
  const T& front() const { return (*this)[0]; }
  const T& back() const { return (*this)[size_ - 1]; }

  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

  Span subspan(size_t offset, size_t count) const {
    FCM_CHECK_LE(offset, size_);
    FCM_CHECK_LE(count, size_ - offset);
    return Span(data_ + offset, count);
  }

  /// Materializes an owning copy (used when a consumer genuinely needs
  /// mutable or outliving storage, e.g. tensor construction at open).
  std::vector<T> ToVector() const { return std::vector<T>(begin(), end()); }

 private:
  const T* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace fcm::storage

#endif  // FCM_STORAGE_SPAN_H_
