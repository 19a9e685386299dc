/* The ksymtab scan kernel: one pass over a window of the kernel image
   that lists, in ascending order, the offsets the OCaml side of
   [Symbol_analysis] looks at, as [(offset << 1) | kind]:
   - kind 1, an anchor candidate: a NUL followed by 'p' (the only
     bytes a "\0printk\0" window can start with);
   - kind 0, a slot: an aligned 8-byte word that is not zero and whose
     top byte, bit 7 masked off, is one of four packed values, or every
     aligned word when the packed values are -1.
   The window starts at an 8-aligned image offset [base], so its words
   are the image's words. With GCC or clang on x86-64 an AVX2 loop takes
   32 bytes per step on a CPU that has AVX2 and the scalar loop runs
   elsewhere. Events are stored as OCaml ints into an int array, over
   ints only, so no write barrier is needed. */

#include <stddef.h>
#include <stdint.h>
#include <string.h>

#include <caml/mlvalues.h>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define VMSH_AVX2_KERNEL 1
#endif

static inline uint64_t load64(const unsigned char *p)
{
  uint64_t w;
  memcpy(&w, p, sizeof w);
  return w;
}

/* Non-zero exactly when some byte of [w] is zero. */
#define HAS_ZERO(w) \
  (((w) - 0x0101010101010101ULL) & ~(w) & 0x8080808080808080ULL)

#define SLOT(at) Val_long((intnat)(at) << 1)
#define ANCHOR(at) Val_long(((intnat)(at) << 1) | 1)

static inline int top_hit(intnat tops, unsigned char top)
{
  top &= 0x7f;
  return (tops & 0xff) == top || ((tops >> 8) & 0xff) == top
         || ((tops >> 16) & 0xff) == top || ((tops >> 24) & 0xff) == top;
}

/* Words from [o] (a multiple of 8) on. An all-zero word can start a
   candidate only at its last byte. Only the image's last window can end
   in a part of a word, and no 8-byte window starts there. */
static intnat scan_scalar(const unsigned char *b, intnat o, intnat len,
                          intnat base, intnat tops, value *ev, intnat k)
{
  for (; o + 8 <= len; o += 8) {
    uint64_t w = load64(b + o);
    if (tops < 0 || (w != 0 && top_hit(tops, b[o + 7])))
      ev[k++] = SLOT(base + o);
    if (w == 0) {
      if (o + 8 < len && b[o + 8] == 'p')
        ev[k++] = ANCHOR(base + o + 7);
    } else if (HAS_ZERO(w)) {
      for (intnat j = o; j < o + 8 && j + 1 < len; j++)
        if (b[j] == 0 && b[j + 1] == 'p')
          ev[k++] = ANCHOR(base + j);
    }
  }
  return k;
}

#ifdef VMSH_AVX2_KERNEL
/* The events of one 32-byte block at [at], word by word: a word's slot
   before the candidates among its bytes. */
static inline intnat emit_block(intnat at, uint32_t am, uint32_t sm,
                                value *ev, intnat k)
{
  for (int q = 0; q < 32; q += 8) {
    if (sm & (0x80u << q))
      ev[k++] = SLOT(at + q);
    uint32_t m = (am >> q) & 0xff;
    while (m) {
      ev[k++] = ANCHOR(at + q + __builtin_ctz(m));
      m &= m - 1;
    }
  }
  return k;
}

/* A block is taken while its 32 bytes and the byte after them are in
   the window; the scalar loop finishes the rest. */
__attribute__((target("avx2"))) static intnat
scan_avx2(const unsigned char *b, intnat len, intnat base, intnat tops,
          value *ev)
{
  const __m256i zero = _mm256_setzero_si256();
  const __m256i p = _mm256_set1_epi8('p');
  const __m256i low7 = _mm256_set1_epi8(0x7f);
  const __m256i t0 = _mm256_set1_epi8((char)(tops & 0xff));
  const __m256i t1 = _mm256_set1_epi8((char)((tops >> 8) & 0xff));
  const __m256i t2 = _mm256_set1_epi8((char)((tops >> 16) & 0xff));
  const __m256i t3 = _mm256_set1_epi8((char)((tops >> 24) & 0xff));
  intnat k = 0, o = 0;
  for (; o + 33 <= len; o += 32) {
    __m256i v = _mm256_loadu_si256((const __m256i *)(b + o));
    __m256i next = _mm256_loadu_si256((const __m256i *)(b + o + 1));
    uint32_t am = (uint32_t)_mm256_movemask_epi8(_mm256_and_si256(
        _mm256_cmpeq_epi8(v, zero), _mm256_cmpeq_epi8(next, p)));
    uint32_t sm;
    if (tops < 0)
      sm = 0x80808080u;
    else {
      __m256i t = _mm256_and_si256(v, low7);
      __m256i hit = _mm256_or_si256(
          _mm256_or_si256(_mm256_cmpeq_epi8(t, t0), _mm256_cmpeq_epi8(t, t1)),
          _mm256_or_si256(_mm256_cmpeq_epi8(t, t2), _mm256_cmpeq_epi8(t, t3)));
      uint32_t zero_words =
          (uint32_t)_mm256_movemask_epi8(_mm256_cmpeq_epi64(v, zero));
      sm = (uint32_t)_mm256_movemask_epi8(hit) & ~zero_words & 0x80808080u;
    }
    if (am | sm)
      k = emit_block(base + o, am, sm, ev, k);
  }
  return scan_scalar(b, o, len, base, tops, ev, k);
}
#endif

/* [ev] holds at least [len / 2 + len / 8 + 1] ints; the caller checks
   [len] against [b]. Returns the number of events. */
intnat vmsh_ksym_scan(value b, intnat len, intnat base, intnat tops, value ev)
{
#ifdef VMSH_AVX2_KERNEL
  if (__builtin_cpu_supports("avx2"))
    return scan_avx2(Bytes_val(b), len, base, tops, Op_val(ev));
#endif
  return scan_scalar(Bytes_val(b), 0, len, base, tops, Op_val(ev), 0);
}

value vmsh_ksym_scan_byte(value b, value len, value base, value tops, value ev)
{
  return Val_long(
      vmsh_ksym_scan(b, Long_val(len), Long_val(base), Long_val(tops), ev));
}

/* The scalar loop whatever the CPU, so the unit suite checks it on a
   machine that runs the AVX2 one. */
intnat vmsh_ksym_scan_portable(value b, intnat len, intnat base, intnat tops,
                               value ev)
{
  return scan_scalar(Bytes_val(b), 0, len, base, tops, Op_val(ev), 0);
}

value vmsh_ksym_scan_portable_byte(value b, value len, value base, value tops,
                                   value ev)
{
  return Val_long(vmsh_ksym_scan_portable(b, Long_val(len), Long_val(base),
                                          Long_val(tops), ev));
}

static inline int name_byte(unsigned char c)
{
  return c == 0 || (c >= 32 && c <= 126);
}

/* One OR over the words, which the compiler vectorises. */
static int all_zero(const unsigned char *b, intnat len)
{
  uint64_t acc = 0;
  intnat i = 0;
  for (; i + 8 <= len; i += 8)
    acc |= load64(b + i);
  for (; i < len; i++)
    acc |= b[i];
  return acc == 0;
}

/* The last byte of [b]'s first [len] that is neither NUL nor printable
   ASCII; -1 when there is none, -2 when every byte is zero. In a window
   of random bytes the last byte mostly answers. */
intnat vmsh_ksym_class(value buf, intnat len)
{
  const unsigned char *b = Bytes_val(buf);
  if (len > 0 && !name_byte(b[len - 1]))
    return len - 1;
  if (all_zero(b, len))
    return -2;
  for (intnat i = len - 1; i >= 0; i--)
    if (!name_byte(b[i]))
      return i;
  return -1;
}

value vmsh_ksym_class_byte(value buf, value len)
{
  return Val_long(vmsh_ksym_class(buf, Long_val(len)));
}
