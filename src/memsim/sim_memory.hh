/**
 * @file
 * Sparse byte-addressable image of the simulated 32-bit address space.
 *
 * Content-directed prefetching scans the *contents* of fetched cache
 * blocks for pointer values, so the simulator must hold a faithful image
 * of the simulated heap. SimMemory stores that image sparsely in 4 KB
 * pages allocated on first touch, found through a two-level page
 * table indexed directly by address bits (1024 leaves of 1024 pages,
 * each leaf allocated on first touch of its 4 MiB region), so an
 * access costs one page lookup, not one hash lookup per byte.
 */

#ifndef ECDP_MEMSIM_SIM_MEMORY_HH
#define ECDP_MEMSIM_SIM_MEMORY_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "memsim/types.hh"

namespace ecdp
{

/**
 * Sparse paged memory image.
 *
 * Reads of untouched memory return zero bytes, which is convenient: a
 * zero word is never a heap pointer, so CDP ignores it.
 */
class SimMemory
{
  public:
    static constexpr unsigned kPageShift = 12;
    static constexpr std::size_t kPageBytes = std::size_t{1} << kPageShift;
    /** Address bits that index a leaf's pages (4 MiB per leaf). */
    static constexpr unsigned kLeafShift = 10;
    static constexpr std::size_t kLeafPages = std::size_t{1} << kLeafShift;
    static constexpr std::size_t kRootLeaves =
        std::size_t{1} << (32 - kPageShift - kLeafShift);

    SimMemory() = default;

    /** Write @p size bytes (1, 2, 4 or 8) of @p value at @p addr. */
    void write(Addr addr, unsigned size, std::uint64_t value);

    /** Read @p size bytes (1, 2, 4 or 8) at @p addr, zero-extended. */
    std::uint64_t read(Addr addr, unsigned size) const;

    /** Write a simulated pointer (4 bytes). */
    void writePointer(Addr addr, Addr value)
    {
        write(addr, 4, value.raw());
    }

    /** Read a simulated pointer (4 bytes). */
    Addr readPointer(Addr addr) const
    {
        return Addr(static_cast<std::uint32_t>(read(addr, 4)));
    }

    /**
     * Copy @p len bytes starting at @p addr into @p out. Used by the
     * content-directed prefetcher to scan a whole cache block.
     */
    void readBlock(Addr addr, std::uint8_t *out, std::size_t len) const;

    /** Number of distinct pages touched so far (footprint / 4 KB). */
    std::size_t pagesTouched() const { return pages_; }

    /** Footprint in bytes (pages touched times the page size). */
    std::size_t footprintBytes() const { return pages_ * kPageBytes; }

    /** Drop all contents, returning the image to the all-zero state. */
    void clear();

    /** Deep-copy the image (SimMemory itself is move-only). */
    SimMemory clone() const;

  private:
    using Page = std::array<std::uint8_t, kPageBytes>;
    using Leaf = std::array<std::unique_ptr<Page>, kLeafPages>;

    /** Byte offset of @p addr within its page. */
    static std::size_t offsetInPage(Addr addr)
    {
        return addr.raw() & (kPageBytes - 1);
    }

    /** Find the page containing @p addr, or null if untouched. */
    const Page *findPage(Addr addr) const;

    /** Find or allocate the page containing @p addr. */
    Page &touchPage(Addr addr);

    /** Byte-by-byte accesses, for one that crosses a page boundary. */
    void writeBytes(Addr addr, unsigned size, std::uint64_t value);
    std::uint64_t readBytes(Addr addr, unsigned size) const;

    /** Root of the page table: leaf i maps the 4 MiB at i << 22. */
    std::array<std::unique_ptr<Leaf>, kRootLeaves> root_;
    std::size_t pages_ = 0;
};

} // namespace ecdp

#endif // ECDP_MEMSIM_SIM_MEMORY_HH
