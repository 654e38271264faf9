/**
 * @file
 * The fused guest physical memory.
 *
 * As in Stramash-QEMU, one coherent backing store holds the physical
 * memory of every node: "any memory operation from a single guest will
 * be reflected in others" (paper §7.1). We back it with host memory,
 * allocated sparsely in 4 KiB frames so an 8 GiB guest costs only what
 * it touches.
 *
 * GuestMemory is purely functional storage — it has no timing. Timing
 * comes from the cache hierarchy and memory model in cache/ and mem/.
 */

#ifndef STRAMASH_MEM_GUEST_MEMORY_HH
#define STRAMASH_MEM_GUEST_MEMORY_HH

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "stramash/common/logging.hh"
#include "stramash/common/types.hh"

namespace stramash
{

/**
 * Sparse, host-backed guest physical memory.
 *
 * Frames hang off a radix page directory that grows on demand: a top
 * vector indexed by GiB, then nodes of 512 x 2 MiB regions, then
 * leaves of 512 x 4 KiB frames. A lookup is three indexed loads, no
 * hashing. A write past the end of the top vector grows it, so its
 * size follows the highest GiB ever written, not the number of
 * frames; addresses are limited to addrBits so it stays bounded.
 * Frames never move once materialised.
 */
class GuestMemory
{
  public:
    /** Widest guest physical address a write may touch. */
    static constexpr unsigned addrBits = 48;

    GuestMemory() = default;

    GuestMemory(const GuestMemory &) = delete;
    GuestMemory &operator=(const GuestMemory &) = delete;

    /** Copy @p size bytes out of guest memory into @p dst. */
    void
    read(Addr addr, void *dst, std::size_t size) const
    {
        auto *out = static_cast<std::uint8_t *>(dst);
        while (size > 0) {
            std::size_t off = pageOffset(addr);
            std::size_t chunk =
                std::min<std::size_t>(size, pageSize - off);
            if (const Frame *f = findFrame(addr)) {
                std::memcpy(out, f->data() + off, chunk);
            } else {
                // Untouched memory reads as zero.
                std::memset(out, 0, chunk);
            }
            out += chunk;
            addr += chunk;
            size -= chunk;
        }
    }

    /** Copy @p size bytes from @p src into guest memory. */
    void
    write(Addr addr, const void *src, std::size_t size)
    {
        auto *in = static_cast<const std::uint8_t *>(src);
        while (size > 0) {
            std::size_t off = pageOffset(addr);
            std::size_t chunk =
                std::min<std::size_t>(size, pageSize - off);
            std::memcpy(frame(addr).data() + off, in, chunk);
            in += chunk;
            addr += chunk;
            size -= chunk;
        }
    }

    /** Typed load. T must be trivially copyable. */
    template <typename T>
    T
    load(Addr addr) const
    {
        static_assert(std::is_trivially_copyable_v<T>);
        T v;
        read(addr, &v, sizeof(T));
        return v;
    }

    /** Typed store. */
    template <typename T>
    void
    store(Addr addr, const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        write(addr, &v, sizeof(T));
    }

    /** Zero a byte range. */
    void
    zero(Addr addr, std::size_t size)
    {
        while (size > 0) {
            std::size_t off = pageOffset(addr);
            std::size_t chunk =
                std::min<std::size_t>(size, pageSize - off);
            if (Frame *f = findFrame(addr))
                std::memset(f->data() + off, 0, chunk);
            addr += chunk;
            size -= chunk;
        }
    }

    /** Copy @p size bytes guest-to-guest (page replication). */
    void
    copy(Addr dst, Addr src, std::size_t size)
    {
        std::vector<std::uint8_t> buf(size);
        read(src, buf.data(), size);
        write(dst, buf.data(), size);
    }

    /** Number of host frames materialised so far. */
    std::size_t frameCount() const { return frames_; }

    /** Host bytes held: frames plus every level of the directory. */
    std::size_t
    hostBytes() const
    {
        return frames_ * sizeof(Frame) + leaves_ * sizeof(Leaf) +
               dirs_ * sizeof(Dir) +
               top_.capacity() * sizeof(top_[0]);
    }

    /**
     * Materialise every frame backing [addr, addr + size) now.
     * First-touch writes grow the page directory, which is not safe
     * against concurrent lookups — a parallel host session must
     * pre-back any range its lanes may write for the first time
     * (each MessageRing does this for its share of the messaging
     * area when it is built). Already-backed pages are untouched.
     */
    void
    ensureBacked(Addr addr, std::size_t size)
    {
        for (Addr base = pageBase(addr);
             base < addr + size; base += pageSize)
            frame(base);
    }

  private:
    using Frame = std::array<std::uint8_t, pageSize>;

    static constexpr unsigned fanoutBits = 9;
    static constexpr std::size_t fanout = std::size_t{1} << fanoutBits;
    static constexpr unsigned leafShift = pageShift + fanoutBits;
    static constexpr unsigned dirShift = leafShift + fanoutBits;

    /** The frames of one 2 MiB region. */
    struct Leaf
    {
        std::array<std::unique_ptr<Frame>, fanout> frames;
    };

    /** The leaves of one 1 GiB region. */
    struct Dir
    {
        std::array<std::unique_ptr<Leaf>, fanout> leaves;
    };

    static std::size_t
    slot(Addr addr, unsigned shift)
    {
        return static_cast<std::size_t>(addr >> shift) & (fanout - 1);
    }

    /** The frame holding @p addr, or nullptr if never written. */
    Frame *
    findFrame(Addr addr) const
    {
        Addr top = addr >> dirShift;
        if (top >= top_.size() || !top_[top])
            return nullptr;
        const Leaf *leaf = top_[top]->leaves[slot(addr, leafShift)].get();
        return leaf ? leaf->frames[slot(addr, pageShift)].get()
                    : nullptr;
    }

    /** The frame holding @p addr, materialised (zeroed) if new. */
    Frame &
    frame(Addr addr)
    {
        Addr top = addr >> dirShift;
        if (top >= top_.size()) {
            panic_if(addr >> addrBits, "guest address ", addr,
                     " exceeds ", addrBits, " bits");
            top_.resize(top + 1);
        }
        std::unique_ptr<Dir> &dir = top_[top];
        if (!dir) {
            dir = std::make_unique<Dir>();
            ++dirs_;
        }
        std::unique_ptr<Leaf> &leaf = dir->leaves[slot(addr, leafShift)];
        if (!leaf) {
            leaf = std::make_unique<Leaf>();
            ++leaves_;
        }
        std::unique_ptr<Frame> &f = leaf->frames[slot(addr, pageShift)];
        if (!f) {
            // Value-initialised: a new frame reads as zero.
            f = std::make_unique<Frame>();
            ++frames_;
        }
        return *f;
    }

    std::vector<std::unique_ptr<Dir>> top_;
    std::size_t dirs_ = 0;
    std::size_t leaves_ = 0;
    std::size_t frames_ = 0;
};

} // namespace stramash

#endif // STRAMASH_MEM_GUEST_MEMORY_HH
