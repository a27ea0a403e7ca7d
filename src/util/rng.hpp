/**
 * @file
 * Deterministic xorshift-based RNG used by generators and benches so that
 * every experiment is reproducible from a seed.
 */

#ifndef XPG_UTIL_RNG_HPP
#define XPG_UTIL_RNG_HPP

#include <array>
#include <bit>
#include <cstdint>

namespace xpg {

/**
 * xoshiro256** generator. Deterministic (splitmix64 of the seed), much
 * faster than mt19937_64, and splittable: jump(n) moves a copy of a
 * stream n draws ahead in O(log n), so workers can fill disjoint parts
 * of one stream.
 */
class Rng
{
  public:
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull) { reseed(seed); }

    /** Re-initialize state from a 64-bit seed via splitmix64. */
    void
    reseed(uint64_t seed)
    {
        for (auto &word : state_) {
            seed += 0x9e3779b97f4a7c15ull;
            uint64_t z = seed;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
            word = z ^ (z >> 31);
        }
    }

    /** Next 64 random bits. */
    uint64_t
    next()
    {
        const uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). bound must be nonzero. */
    uint64_t
    nextBounded(uint64_t bound)
    {
        // Lemire's multiply-shift rejection-free mapping (slightly biased
        // for huge bounds; irrelevant for workload generation).
        return static_cast<uint64_t>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

    /** Same state, hence the same stream from here on. */
    bool operator==(const Rng &) const = default;

    /** Uniform double in [0, 1). */
    double
    nextDouble()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /**
     * Advance by @p draws next() calls in O(log draws): the state update
     * is linear over GF(2), so stepping n times is applying the
     * polynomial x^n mod P of the update, P being its characteristic
     * polynomial (the reference xoshiro256 jump() is n = 2^128).
     */
    void
    jump(uint64_t draws)
    {
        if (draws == 0)
            return;
        Poly r{2, 0, 0, 0}; // x, for the top bit of draws
        for (int bit = std::bit_width(draws) - 2; bit >= 0; --bit) {
            r = mulMod(r, r);
            if ((draws >> bit) & 1)
                timesX(r);
        }
        Poly acc{};
        for (unsigned k = 0; k < 256; ++k, next())
            if ((r[k / 64] >> (k % 64)) & 1)
                for (unsigned i = 0; i < 4; ++i)
                    acc[i] ^= state_[i];
        for (unsigned i = 0; i < 4; ++i)
            state_[i] = acc[i];
    }

  private:
    /// A polynomial over GF(2) of degree < 256; bit k is x^k's term.
    using Poly = std::array<uint64_t, 4>;

    /// P minus its x^256 term (Berlekamp-Massey on the state sequence;
    /// x^(2^128) mod P is the reference jump constant).
    static constexpr Poly kCharPoly = {
        0x9d116f2bb0f0f001ull, 0x0280002bcefd1a5eull,
        0x04b4edcf26259f85ull, 0x0003c03c3f3ecb19ull};

    /** r = r * x mod P. */
    static void
    timesX(Poly &r)
    {
        const uint64_t carry = r[3] >> 63;
        for (unsigned i = 3; i > 0; --i)
            r[i] = r[i] << 1 | r[i - 1] >> 63;
        r[0] <<= 1;
        if (carry)
            for (unsigned i = 0; i < 4; ++i)
                r[i] ^= kCharPoly[i];
    }

    /** a * b mod P, Horner over a's terms from the top. */
    static Poly
    mulMod(const Poly &a, const Poly &b)
    {
        Poly acc{};
        for (int k = 255; k >= 0; --k) {
            timesX(acc);
            if ((a[k / 64] >> (k % 64)) & 1)
                for (unsigned i = 0; i < 4; ++i)
                    acc[i] ^= b[i];
        }
        return acc;
    }

    static uint64_t
    rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    uint64_t state_[4];
};

} // namespace xpg

#endif // XPG_UTIL_RNG_HPP
