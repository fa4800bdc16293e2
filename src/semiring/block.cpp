#include "semiring/block.hpp"

#include <cstring>

namespace capsp {

DistBlock DistBlock::sub_block(std::int64_t r0, std::int64_t c0,
                               std::int64_t rows, std::int64_t cols) const {
  CAPSP_CHECK(r0 >= 0 && c0 >= 0 && rows >= 0 && cols >= 0);
  CAPSP_CHECK(r0 + rows <= rows_ && c0 + cols <= cols_);
  DistBlock out = for_overwrite(rows, cols);
  if (cols == 0) return out;  // avoid memcpy on empty-vector null pointers
  for (std::int64_t r = 0; r < rows; ++r)
    std::memcpy(out.row(r), row(r0 + r) + c0,
                static_cast<std::size_t>(cols) * sizeof(Dist));
  return out;
}

Payload DistBlock::release_payload() && {
  Payload payload =
      is_shared() ? std::move(shared_) : Payload(std::move(data_));
  *this = DistBlock();
  return payload;
}

void DistBlock::set_sub_block(std::int64_t r0, std::int64_t c0,
                              const DistBlock& src) {
  CAPSP_CHECK(r0 >= 0 && c0 >= 0);
  CAPSP_CHECK(r0 + src.rows() <= rows_ && c0 + src.cols() <= cols_);
  if (src.cols() == 0) return;  // avoid memcpy on empty-vector null pointers
  for (std::int64_t r = 0; r < src.rows(); ++r)
    std::memcpy(row(r0 + r) + c0, src.row(r),
                static_cast<std::size_t>(src.cols()) * sizeof(Dist));
}

}  // namespace capsp
