#include <gtest/gtest.h>

#include "stramash/mem/guest_memory.hh"

using namespace stramash;

TEST(GuestMemory, UntouchedReadsZero)
{
    GuestMemory mem;
    EXPECT_EQ(mem.load<std::uint64_t>(0x12345678), 0u);
    std::uint8_t buf[16];
    mem.read(0xdeadbeef000, buf, sizeof(buf));
    for (auto b : buf)
        EXPECT_EQ(b, 0);
    EXPECT_EQ(mem.frameCount(), 0u);
}

TEST(GuestMemory, TypedRoundTrip)
{
    GuestMemory mem;
    mem.store<std::uint32_t>(0x1000, 0xabcd1234);
    mem.store<double>(0x2000, 3.25);
    EXPECT_EQ(mem.load<std::uint32_t>(0x1000), 0xabcd1234u);
    EXPECT_DOUBLE_EQ(mem.load<double>(0x2000), 3.25);
    EXPECT_EQ(mem.frameCount(), 2u);
}

TEST(GuestMemory, CrossPageReadWrite)
{
    GuestMemory mem;
    std::vector<std::uint8_t> data(3 * pageSize);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 7);
    Addr base = 5 * pageSize - 100; // straddles boundaries
    mem.write(base, data.data(), data.size());
    std::vector<std::uint8_t> back(data.size());
    mem.read(base, back.data(), back.size());
    EXPECT_EQ(back, data);
}

TEST(GuestMemory, CrossPageTypedValue)
{
    GuestMemory mem;
    Addr straddle = pageSize - 4;
    mem.store<std::uint64_t>(straddle, 0x1122334455667788ULL);
    EXPECT_EQ(mem.load<std::uint64_t>(straddle),
              0x1122334455667788ULL);
}

TEST(GuestMemory, ZeroRange)
{
    GuestMemory mem;
    mem.store<std::uint64_t>(0x1000, ~0ull);
    mem.store<std::uint64_t>(0x1ff8, ~0ull);
    mem.store<std::uint64_t>(0x2000, ~0ull);
    mem.zero(0x1000, pageSize);
    EXPECT_EQ(mem.load<std::uint64_t>(0x1000), 0u);
    EXPECT_EQ(mem.load<std::uint64_t>(0x1ff8), 0u);
    EXPECT_EQ(mem.load<std::uint64_t>(0x2000), ~0ull);
}

TEST(GuestMemory, CopyGuestToGuest)
{
    GuestMemory mem;
    std::vector<std::uint8_t> data(pageSize);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i);
    mem.write(0x10000, data.data(), data.size());
    mem.copy(0x50000, 0x10000, pageSize);
    std::vector<std::uint8_t> back(pageSize);
    mem.read(0x50000, back.data(), back.size());
    EXPECT_EQ(back, data);
}

TEST(GuestMemory, OverlappingWritesLastWins)
{
    GuestMemory mem;
    mem.store<std::uint32_t>(0x100, 0x11111111);
    mem.store<std::uint16_t>(0x102, 0x2222);
    EXPECT_EQ(mem.load<std::uint32_t>(0x100), 0x22221111u);
}

TEST(GuestMemory, SparsenessAtScale)
{
    GuestMemory mem;
    // Touch one byte every 64 MiB over an 8 GiB span: 128 frames.
    for (Addr a = 0; a < (Addr{8} << 30); a += Addr{64} << 20)
        mem.store<std::uint8_t>(a, 1);
    EXPECT_EQ(mem.frameCount(), 128u);
}

TEST(GuestMemory, HighAddressRoundTrip)
{
    GuestMemory mem;
    mem.store<std::uint64_t>(0xdeadbeef000, 0x0123456789abcdefULL);
    EXPECT_EQ(mem.load<std::uint64_t>(0xdeadbeef000),
              0x0123456789abcdefULL);
    EXPECT_EQ(mem.frameCount(), 1u);
}

TEST(GuestMemory, UntouchedNeighboursInOneDirectoryNodeReadZero)
{
    GuestMemory mem;
    // 0x40200000 opens a 2 MiB region of the second GiB: its
    // neighbours share the same directory node and leaf.
    Addr a = 0x40200000;
    mem.store<std::uint64_t>(a + 8, ~0ull);
    EXPECT_EQ(mem.load<std::uint64_t>(a), 0u);
    EXPECT_EQ(mem.load<std::uint64_t>(a + 16), 0u);
    EXPECT_EQ(mem.load<std::uint64_t>(a + pageSize), 0u);
    EXPECT_EQ(mem.load<std::uint64_t>(a - pageSize), 0u);
    EXPECT_EQ(mem.load<std::uint64_t>(a + (Addr{1} << 21)), 0u);
    EXPECT_EQ(mem.load<std::uint64_t>(a + 8), ~0ull);
    EXPECT_EQ(mem.frameCount(), 1u);
}

TEST(GuestMemory, WriteNearTopOfAddressSpaceStaysBounded)
{
    GuestMemory mem;
    Addr high = (Addr{1} << 46) - pageSize;
    mem.store<std::uint32_t>(high, 0xfeedu);
    EXPECT_EQ(mem.load<std::uint32_t>(high), 0xfeedu);
    EXPECT_EQ(mem.frameCount(), 1u);
    // One frame, one leaf, one directory node and a top vector of
    // 2^16 slots: well under a MiB, not a flat map of the range.
    EXPECT_LT(mem.hostBytes(), std::size_t{1} << 20);
}

TEST(GuestMemoryDeath, WriteBeyondAddressWidthPanics)
{
    GuestMemory mem;
    EXPECT_DEATH(mem.store<std::uint8_t>(Addr{1} << GuestMemory::addrBits,
                                         1),
                 "exceeds");
}
