#include "rmb/status_register.hh"

#include "common/logging.hh"

namespace rmb {
namespace core {

std::uint8_t
dirBit(SourceDir d)
{
    switch (d) {
      case SourceDir::Below:
        return 0b001;
      case SourceDir::Straight:
        return 0b010;
      case SourceDir::Above:
        return 0b100;
    }
    panic("bad SourceDir");
}

bool
statusLegal(std::uint8_t bits)
{
    // Table 1: everything except 101, 111 (and out-of-range values).
    return bits <= 0b111 && bits != 0b101 && bits != 0b111;
}

std::string
statusName(std::uint8_t bits)
{
    switch (bits) {
      case 0b000:
        return "unused";
      case 0b001:
        return "from-below";
      case 0b010:
        return "straight";
      case 0b011:
        return "below+straight";
      case 0b100:
        return "from-above";
      case 0b110:
        return "above+straight";
      default: {
        // Diagnostic form for the forbidden codes (101, 111) and
        // out-of-range values: at least three binary digits.
        std::string digits;
        for (std::uint8_t b = bits; b || digits.size() < 3; b >>= 1)
            digits.insert(digits.begin(),
                          static_cast<char>('0' + (b & 1)));
        return "illegal(0b" + digits + ")";
      }
    }
}

int
StatusRegister::numSources() const
{
    int n = 0;
    for (std::uint8_t b = bits_; b; b >>= 1)
        n += b & 1;
    return n;
}

void
StatusRegister::connect(SourceDir d)
{
    const std::uint8_t next = bits_ | dirBit(d);
    rmb_assert(next != bits_, "source ", statusName(dirBit(d)),
               " already connected");
    rmb_assert(statusLegal(next), "illegal status transition ",
               statusName(bits_), " -> bits ", int{next});
    bits_ = next;
}

void
StatusRegister::disconnect(SourceDir d)
{
    const std::uint8_t bit = dirBit(d);
    rmb_assert(bits_ & bit, "source not connected");
    const std::uint8_t next = bits_ & ~bit;
    rmb_assert(statusLegal(next), "illegal status after disconnect");
    bits_ = next;
}

} // namespace core
} // namespace rmb
