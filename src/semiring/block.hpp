// Dense rectangular distance block (row-major), the unit of storage and of
// communication in every distributed algorithm here: ranks own blocks,
// messages carry blocks, kernels transform blocks.
//
// A block either owns private storage or reads a received message's
// Payload in place (payload.hpp).  A block reading a payload is read-only
// until it is written: its first mutable access — data(), row() or at()
// on a non-const block — copies the words into private storage, so the
// sender and the payload's other holders never see the write.  Const
// access never copies, so pass blocks you only read as const.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "semiring/dist.hpp"
#include "semiring/payload.hpp"
#include "util/check.hpp"

namespace capsp {

/// Dense block of tropical-semiring values.  A 0×k or k×0 block is legal
/// (empty supernodes produce them) and all operations treat it as a no-op.
class DistBlock {
 public:
  DistBlock() = default;

  /// rows×cols block filled with `fill` (default: all-infinite).
  DistBlock(std::int64_t rows, std::int64_t cols, Dist fill = kInf)
      : rows_(rows), cols_(cols),
        data_(static_cast<std::size_t>(rows * cols), fill) {
    CAPSP_CHECK(rows >= 0 && cols >= 0);
  }

  /// rows×cols block reading `payload` in place: no copy.  The payload
  /// must hold exactly rows·cols words.
  DistBlock(std::int64_t rows, std::int64_t cols, Payload payload)
      : rows_(rows), cols_(cols), shared_(std::move(payload)) {
    CAPSP_CHECK(rows >= 0 && cols >= 0);
    CAPSP_CHECK(static_cast<std::int64_t>(shared_.size()) == rows * cols);
  }

  std::int64_t rows() const { return rows_; }
  std::int64_t cols() const { return cols_; }
  std::int64_t size() const { return rows_ * cols_; }
  bool empty() const { return size() == 0; }

  Dist& at(std::int64_t r, std::int64_t c) {
    bounds_check(r, c);
    make_private();
    return data_[static_cast<std::size_t>(r * cols_ + c)];
  }
  Dist at(std::int64_t r, std::int64_t c) const {
    bounds_check(r, c);
    return data()[static_cast<std::size_t>(r * cols_ + c)];
  }

  /// Raw row-major words (the wire format for messages).
  std::span<Dist> data() {
    make_private();
    return data_;
  }
  std::span<const Dist> data() const {
    return is_shared() ? shared_.words() : std::span<const Dist>(data_);
  }

  Dist* row(std::int64_t r) {
    make_private();
    return data_.data() + static_cast<std::size_t>(r * cols_);
  }
  const Dist* row(std::int64_t r) const {
    return data().data() + static_cast<std::size_t>(r * cols_);
  }

  /// True while the block reads a received payload in place.
  bool is_shared() const { return !shared_.empty(); }
  /// The payload a shared block reads (empty for a private block).
  const Payload& shared_payload() const { return shared_; }
  /// The block's words as a payload, without a copy: the payload it
  /// reads, or its private storage moved out.  Leaves the block 0×0.
  Payload release_payload() &&;

  /// Set the diagonal to zero (block must be square); the distance-matrix
  /// invariant A(v, v) = 0.
  void zero_diagonal() {
    CAPSP_CHECK(rows_ == cols_);
    for (std::int64_t i = 0; i < rows_; ++i) at(i, i) = 0;
  }

  /// True iff every entry is +infinity (the paper's "empty block").
  bool all_infinite() const {
    for (Dist d : data())
      if (!is_inf(d)) return false;
    return true;
  }

  DistBlock transposed() const {
    DistBlock t(cols_, rows_);
    for (std::int64_t r = 0; r < rows_; ++r)
      for (std::int64_t c = 0; c < cols_; ++c) t.at(c, r) = at(r, c);
    return t;
  }

  /// Copy the rectangle [r0, r0+rows) × [c0, c0+cols) into a new block.
  DistBlock sub_block(std::int64_t r0, std::int64_t c0, std::int64_t rows,
                      std::int64_t cols) const;

  /// Overwrite the rectangle at (r0, c0) with `src`.
  void set_sub_block(std::int64_t r0, std::int64_t c0, const DistBlock& src);

  /// Same shape and entries, wherever each block's words live.
  friend bool operator==(const DistBlock& a, const DistBlock& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ &&
           std::ranges::equal(a.data(), b.data());
  }

 private:
  /// Copy-on-write: a shared block copies its payload's words into
  /// private storage and lets go of the payload.
  void make_private() {
    if (!is_shared()) return;
    data_.assign(shared_.begin(), shared_.end());
    shared_ = Payload();
  }

  void bounds_check(std::int64_t r, std::int64_t c) const {
    CAPSP_CHECK_MSG(r >= 0 && r < rows_ && c >= 0 && c < cols_,
                    "(" << r << "," << c << ") outside " << rows_ << "x"
                        << cols_);
  }

  std::int64_t rows_ = 0;
  std::int64_t cols_ = 0;
  std::vector<Dist> data_;  // private storage; empty while shared
  Payload shared_;          // the payload a shared block reads
};

}  // namespace capsp
