/* The kernel-image noise kernel: byte [i] of a fill from state [s] is
   bits 2-9 of mix64(s + (i+1)*gamma), the low byte of [next]'s value.
   Each byte depends only on its own counter, so the loop vectorises.
   With GCC on x86-64 the loop is built twice, for x86-64-v4 (AVX-512,
   whose vpmullq makes the 64-bit multiplies wide) and for the baseline
   ISA, and the dynamic loader picks one by CPU at load time. Every
   other target builds the portable loop alone. */

#include <stddef.h>
#include <stdint.h>

#include <caml/mlvalues.h>

#define GOLDEN_GAMMA 0x9E3779B97F4A7C15ULL

static inline uint64_t mix64(uint64_t z)
{
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

static inline void fill(uint64_t s, unsigned char *b, size_t len)
{
  for (size_t i = 0; i < len; i++)
    b[i] = (unsigned char)(mix64(s + (uint64_t)(i + 1) * GOLDEN_GAMMA) >> 2);
}

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
__attribute__((target_clones("arch=x86-64-v4", "default")))
#endif
static void fill_dispatched(uint64_t s, unsigned char *b, size_t len)
{
  fill(s, b, len);
}

/* The baseline-ISA loop whatever the CPU, so the unit suite checks it
   on a machine whose loader picks the wide one. */
static void fill_portable(uint64_t s, unsigned char *b, size_t len)
{
  fill(s, b, len);
}

/* Callers check [off, off + len) against [b]'s length. */
value vmsh_splitmix_fill(int64_t s, value b, intnat off, intnat len)
{
  fill_dispatched((uint64_t)s, Bytes_val(b) + off, (size_t)len);
  return Val_unit;
}

value vmsh_splitmix_fill_byte(value s, value b, value off, value len)
{
  return vmsh_splitmix_fill(Int64_val(s), b, Long_val(off), Long_val(len));
}

value vmsh_splitmix_fill_portable(int64_t s, value b, intnat off, intnat len)
{
  fill_portable((uint64_t)s, Bytes_val(b) + off, (size_t)len);
  return Val_unit;
}

value vmsh_splitmix_fill_portable_byte(value s, value b, value off, value len)
{
  return vmsh_splitmix_fill_portable(Int64_val(s), b, Long_val(off),
                                     Long_val(len));
}
