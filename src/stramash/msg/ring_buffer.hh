/**
 * @file
 * A shared-memory message ring resident in guest physical memory
 * (paper §6.2: "one or more pairs of shared memory ring buffers per
 * kernel pair").
 *
 * The ring's storage is real guest memory, so every enqueue/dequeue
 * performs actual loads and stores *through the machine's cache and
 * coherence model*. The messaging cost the paper measures therefore
 * emerges from placement: a ring in the pool is remote for both
 * kernels (Shared-SHM), in x86-local memory it is remote only for
 * the Arm side (Separated-SHM), and so on — no per-model constants.
 */

#ifndef STRAMASH_MSG_RING_BUFFER_HH
#define STRAMASH_MSG_RING_BUFFER_HH

#include <optional>

#include "stramash/msg/message.hh"
#include "stramash/sim/machine.hh"

namespace stramash
{

/**
 * Fixed-slot SPSC ring in guest memory. Layout:
 *   [0,  8)  head (next slot to read), written by consumer
 *   [8, 16)  tail (next slot to write), written by producer
 *   [64, …)  slots of slotBytes each
 *
 * The ring keeps host copies of head and tail and decides from those,
 * so no operation reads the control words back out of guest memory.
 * Every update is still stored to the guest words, and every load and
 * store of them is still charged through the cache model, so the
 * simulated cost is that of a ring that reads its words from memory.
 * Only this object writes the control words.
 */
class MessageRing
{
  public:
    /** Header (64 B) + page payload: fits any DSM message. */
    static constexpr std::size_t slotBytes =
        Message::headerBytes + pageSize;

    /**
     * @param base guest-physical base of the ring area
     * @param bytes total bytes reserved (determines slot count)
     */
    MessageRing(Machine &machine, Addr base, Addr bytes);

    /** Capacity in messages. */
    std::size_t capacity() const { return numSlots_ - 1; }

    /** Messages currently queued. */
    std::size_t
    size() const
    {
        return static_cast<std::size_t>(tail_ - head_);
    }

    // ---- occupancy / backpressure hooks (uncharged host reads) ----

    /** Free slots before enqueue() starts failing. */
    std::size_t freeSlots() const { return capacity() - size(); }

    /** True when the next enqueue() would be refused. */
    bool full() const { return size() >= capacity(); }

    /** Queued fraction of capacity, in [0, 1]. */
    double
    occupancy() const
    {
        return static_cast<double>(size()) /
               static_cast<double>(capacity());
    }

    /** Deepest the ring has ever been (post-enqueue depth). An
     *  admission controller consults this to size its shed
     *  threshold; reset only by recreating the ring. */
    std::size_t highWatermark() const { return highWatermark_; }

    /**
     * Enqueue, charging the producing node the control-word and slot
     * stores through the cache model.
     * @return false if the ring is full.
     */
    bool enqueue(NodeId producer, const Message &msg);

    /**
     * Dequeue, charging the consuming node the control-word and slot
     * loads.
     */
    std::optional<Message> dequeue(NodeId consumer);

    /**
     * Charge one polling probe (a head/tail load) without consuming.
     * @return true if a message is available.
     */
    bool pollProbe(NodeId consumer);

    /**
     * Charge exactly what an empty dequeue() costs — the head and
     * tail control-word loads — without touching the ring's guest
     * memory at all. A parallel receive scan uses this for rings
     * another host lane has claimed: the classic scan would have
     * found them empty and paid this, so paying it blind keeps the
     * timing bit-identical without racing on the ring state.
     */
    void chargeEmptyPeek(NodeId consumer);

    Addr base() const { return base_; }

  private:
    Machine &machine_;
    Addr base_;
    std::size_t numSlots_;
    std::size_t highWatermark_ = 0;
    /** Host copies of the guest head and tail words. */
    std::uint64_t head_ = 0;
    std::uint64_t tail_ = 0;

    Addr headAddr() const { return base_; }
    Addr tailAddr() const { return base_ + 8; }
    Addr slotAddr(std::uint64_t idx) const
    {
        return base_ + 64 + idx * slotBytes;
    }
};

} // namespace stramash

#endif // STRAMASH_MSG_RING_BUFFER_HH
