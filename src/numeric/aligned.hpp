#pragma once

#include <cstddef>
#include <new>
#include <vector>

namespace rpbcm::numeric {

/// Minimal aligned allocator for the split-complex SoA spectrum planes.
/// The eMAC kernels address bins with unaligned loads (the BS/2+1 bin
/// stride is rarely a multiple of 8 floats), but a 32-byte-aligned plane
/// base keeps the first vector of every row inside one cache line and lets
/// a future aligned fast path kick in when the stride allows it.
template <typename T, std::size_t Alignment = 32>
struct AlignedAllocator {
  using value_type = T;
  static_assert((Alignment & (Alignment - 1)) == 0, "power-of-two alignment");
  static_assert(Alignment >= alignof(T), "alignment weaker than the type's");

  // The non-type Alignment parameter defeats allocator_traits' default
  // rebind deduction, so spell it out.
  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  AlignedAllocator() noexcept = default;
  template <typename U>
  explicit AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{Alignment}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{Alignment});
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U, Alignment>&) const noexcept {
    return true;
  }
};

/// std::vector with 32-byte-aligned storage — the container for every
/// split-complex spectrum plane (weights, activations, gradients).
template <typename T>
using AlignedVec = std::vector<T, AlignedAllocator<T>>;

}  // namespace rpbcm::numeric
