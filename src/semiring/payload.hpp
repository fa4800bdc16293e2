// The body of a message: an immutable, reference-counted run of words.
//
// A send turns its words into one Payload and every hop after that shares
// it: the mailbox, a duplicated or delayed frame, each edge of a broadcast
// tree, and the DistBlock that adopts it on receipt (block.hpp).  Nobody
// writes a Payload's words once it is built, so holders on different rank
// threads read them without locks; a block that wants to write what it
// received copies first.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "semiring/dist.hpp"

namespace capsp {

class Payload {
 public:
  using const_iterator = const Dist*;

  /// No words.
  Payload() = default;

  /// Adopts `words`' storage: no copy.
  explicit Payload(std::vector<Dist> words)
      : buffer_(std::make_shared<const std::vector<Dist>>(std::move(words))) {}

  /// A payload holding a copy of `words`.
  static Payload copy_of(std::span<const Dist> words) {
    return Payload(std::vector<Dist>(words.begin(), words.end()));
  }

  std::span<const Dist> words() const {
    return buffer_ ? std::span<const Dist>(*buffer_) : std::span<const Dist>();
  }
  std::size_t size() const { return buffer_ ? buffer_->size() : 0; }
  bool empty() const { return size() == 0; }
  const Dist* data() const { return words().data(); }
  Dist operator[](std::size_t i) const { return (*buffer_)[i]; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size(); }

  /// Word-for-word equality with any contiguous run of words.
  friend bool operator==(const Payload& a, std::span<const Dist> b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  std::shared_ptr<const std::vector<Dist>> buffer_;
};

}  // namespace capsp
