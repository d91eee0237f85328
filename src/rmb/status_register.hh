/**
 * @file
 * The 3-bit output-port status register of an INC (paper Table 1).
 *
 * Each INC keeps one register per output port (= per bus level).  The
 * bits say which input port(s) currently drive that output:
 *
 *   bit 0 - "from below":   input port l-1 drives output port l
 *   bit 1 - "straight":     input port l   drives output port l
 *   bit 2 - "from above":   input port l+1 drives output port l
 *
 * Two sources are legal only during the make-before-break step of a
 * downward move and only for adjacent sources, so 101 and 111 are
 * forbidden (Table 1 "Not allowed").
 */

#pragma once

#include <cstdint>
#include <string>

namespace rmb {
namespace core {

/** Table 1 codes, named. */
enum class PortStatus : std::uint8_t
{
    Unused = 0b000,
    FromBelow = 0b001,
    Straight = 0b010,
    FromBelowAndStraight = 0b011,
    FromAbove = 0b100,
    FromAboveAndStraight = 0b110,
};

/** Relative source of an output port. */
enum class SourceDir : std::uint8_t
{
    Below,     //!< input l-1
    Straight,  //!< input l
    Above,     //!< input l+1
};

/** @return true for the six codes Table 1 allows. */
bool statusLegal(std::uint8_t bits);

/**
 * Human-readable name of a code, for traces and tables.  Codes
 * Table 1 forbids come back as a diagnostic "illegal(0bXXX)" string
 * rather than a panic, so checkers (rmbcheck, traceview) can print
 * counterexamples that *contain* bad codes.
 */
std::string statusName(std::uint8_t bits);

/** The Table-1 bit a source direction occupies in a status code. */
std::uint8_t dirBit(SourceDir d);

/**
 * One output port's status register with checked mutation: connecting
 * a second source is only legal in the make-before-break patterns
 * (below+straight or above+straight), and disconnect must leave a
 * legal code.  Violations panic, because they indicate a protocol
 * bug, not a user error.
 */
class StatusRegister
{
  public:
    std::uint8_t bits() const { return bits_; }
    PortStatus status() const { return PortStatus{bits_}; }

    bool unused() const { return bits_ == 0; }

    /** Number of sources currently connected (0, 1 or 2). */
    int numSources() const;

    /** Connect @p d as a source; panics if the result is illegal. */
    void connect(SourceDir d);

    /** Disconnect @p d; panics if it was not connected. */
    void disconnect(SourceDir d);

    /** Force back to Unused (teardown). */
    void clear() { bits_ = 0; }

  private:
    std::uint8_t bits_ = 0;
};

} // namespace core
} // namespace rmb
