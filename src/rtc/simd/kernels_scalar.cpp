// Scalar kernel table and the level -> table dispatch.
#include "rtc/simd/kernels.hpp"
#include "rtc/simd/scalar_impl.hpp"

namespace rtc::simd {

namespace detail {

const Kernels& scalar_kernels() {
  static const Kernels k{
      scalar::over_front,      scalar::over_back,
      scalar::max_blend,       scalar::count_non_blank,
      scalar::blank_mask,      scalar::fused_cells_over_front,
      scalar::fused_cells_over_back, scalar::fused_cells_max,
      scalar::crc32,
  };
  return k;
}

}  // namespace detail

const Kernels& kernels_for(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return detail::scalar_kernels();
    case SimdLevel::kAvx2:
      return detail::avx2_kernels();
  }
  return detail::scalar_kernels();
}

}  // namespace rtc::simd
