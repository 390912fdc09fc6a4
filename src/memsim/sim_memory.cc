// simlint: hot-path
#include "memsim/sim_memory.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

namespace ecdp
{

// A whole-word access copies the page's bytes into the value as they
// lie, which is the little-endian order read() and write() define.
static_assert(std::endian::native == std::endian::little);

const SimMemory::Page *
SimMemory::findPage(Addr addr) const
{
    const Leaf *leaf = root_[addr.raw() >> (kPageShift + kLeafShift)].get();
    if (!leaf)
        return nullptr;
    return (*leaf)[(addr.raw() >> kPageShift) & (kLeafPages - 1)].get();
}

SimMemory::Page &
SimMemory::touchPage(Addr addr)
{
    std::unique_ptr<Leaf> &leaf =
        root_[addr.raw() >> (kPageShift + kLeafShift)];
    if (!leaf)
        leaf = std::make_unique<Leaf>();
    std::unique_ptr<Page> &page =
        (*leaf)[(addr.raw() >> kPageShift) & (kLeafPages - 1)];
    if (!page) {
        page = std::make_unique<Page>(); // value-initialized: zeros
        ++pages_;
    }
    return *page;
}

void
SimMemory::write(Addr addr, unsigned size, std::uint64_t value)
{
    assert(size == 1 || size == 2 || size == 4 || size == 8);
    const std::size_t offset = offsetInPage(addr);
    if (offset + size > kPageBytes) {
        writeBytes(addr, size, value);
        return;
    }
    std::memcpy(touchPage(addr).data() + offset, &value, size);
}

std::uint64_t
SimMemory::read(Addr addr, unsigned size) const
{
    assert(size == 1 || size == 2 || size == 4 || size == 8);
    const std::size_t offset = offsetInPage(addr);
    if (offset + size > kPageBytes)
        return readBytes(addr, size);
    std::uint64_t value = 0;
    if (const Page *page = findPage(addr))
        std::memcpy(&value, page->data() + offset, size);
    return value;
}

void
SimMemory::writeBytes(Addr addr, unsigned size, std::uint64_t value)
{
    for (unsigned i = 0; i < size; ++i) {
        Addr byte_addr = addr + i;
        Page &page = touchPage(byte_addr);
        page[offsetInPage(byte_addr)] =
            static_cast<std::uint8_t>(value >> (8 * i));
    }
}

std::uint64_t
SimMemory::readBytes(Addr addr, unsigned size) const
{
    std::uint64_t value = 0;
    for (unsigned i = 0; i < size; ++i) {
        Addr byte_addr = addr + i;
        const Page *page = findPage(byte_addr);
        std::uint8_t byte =
            page ? (*page)[offsetInPage(byte_addr)] : 0;
        value |= std::uint64_t{byte} << (8 * i);
    }
    return value;
}

void
SimMemory::clear()
{
    for (std::unique_ptr<Leaf> &leaf : root_)
        leaf.reset();
    pages_ = 0;
}

SimMemory
SimMemory::clone() const
{
    SimMemory copy;
    for (std::size_t i = 0; i < kRootLeaves; ++i) {
        if (!root_[i])
            continue;
        copy.root_[i] = std::make_unique<Leaf>();
        for (std::size_t j = 0; j < kLeafPages; ++j) {
            if (const Page *page = (*root_[i])[j].get())
                (*copy.root_[i])[j] = std::make_unique<Page>(*page);
        }
    }
    copy.pages_ = pages_;
    return copy;
}

void
SimMemory::readBlock(Addr addr, std::uint8_t *out, std::size_t len) const
{
    std::size_t done = 0;
    while (done < len) {
        Addr cur = addr + done;
        std::size_t in_page = kPageBytes - offsetInPage(cur);
        std::size_t chunk = std::min(in_page, len - done);
        if (const Page *page = findPage(cur)) {
            std::memcpy(out + done,
                        page->data() + offsetInPage(cur), chunk);
        } else {
            std::memset(out + done, 0, chunk);
        }
        done += chunk;
    }
}

} // namespace ecdp
