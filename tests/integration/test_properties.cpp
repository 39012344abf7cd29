// Property-based suites: parameterized sweeps over the system's key
// invariants.
#include <gtest/gtest.h>

#include <ostream>

#include "analysis/chain_analyzer.h"
#include "apps/case_study.h"
#include "apps/ghttpd.h"
#include "apps/nullhttpd.h"
#include "apps/sendmail.h"
#include "apps/xterm.h"
#include "netsim/decode.h"
#include "netsim/http.h"

namespace dfsm {
namespace {

// --- Property: atoi32(s) == atol64(s) truncated to 32 bits, for all s. --

class AtoiProperty : public ::testing::TestWithParam<const char*> {};

TEST_P(AtoiProperty, TruncationLaw) {
  const std::string s = GetParam();
  const auto wide = netsim::atol64(s);
  const auto narrow = netsim::atoi32(s);
  EXPECT_EQ(narrow, static_cast<std::int32_t>(
                        static_cast<std::uint32_t>(static_cast<std::uint64_t>(wide))));
}

INSTANTIATE_TEST_SUITE_P(
    Strings, AtoiProperty,
    ::testing::Values("0", "-1", "100", "2147483647", "2147483648",
                      "4294958848", "4294967295", "4294967296", "9999999999",
                      "  -800", "+42", "junk", "12x", ""));

// --- Property: percent_decode is idempotent exactly when no encoded
//     escapes remain (the IIS predicate's soundness condition). ----------

class DecodeProperty : public ::testing::TestWithParam<const char*> {};

TEST_P(DecodeProperty, SecondDecodeOnlyChangesStringsWithResidualEscapes) {
  const std::string once = netsim::percent_decode(GetParam());
  const std::string twice = netsim::percent_decode(once);
  if (once == twice) {
    SUCCEED();
  } else {
    // A change implies the once-decoded form still contained a valid
    // escape — which is precisely what "..%252f" exploits.
    EXPECT_NE(once.find('%'), std::string::npos);
  }
}

INSTANTIATE_TEST_SUITE_P(Paths, DecodeProperty,
                         ::testing::Values("plain", "a%20b", "..%2f", "..%252f",
                                           "%25", "%2525", "100%", "%zz",
                                           "..%255c", "mixed%2f%252f"));

// --- Property: NULL HTTPD never overflows under the bounded loop, for a
//     grid of (contentLen, body length). --------------------------------

struct PostCase {
  std::int32_t content_len;
  std::size_t body_len;
};

// gtest would otherwise print the struct as a byte dump, padding bytes
// included, and those bytes end up in the ctest names.
void PrintTo(const PostCase& c, std::ostream* os) {
  *os << "{content_len=" << c.content_len << ", body_len=" << c.body_len
      << "}";
}

class BoundedLoopProperty : public ::testing::TestWithParam<PostCase> {};

TEST_P(BoundedLoopProperty, FixedServerNeverViolatesThePredicate) {
  apps::NullHttpdChecks fixed;
  fixed.content_len_nonneg = true;
  fixed.bounded_read_loop = true;
  apps::NullHttpd app{fixed};
  const auto p = GetParam();
  const auto r = app.handle_post(p.content_len, std::string(p.body_len, 'q'));
  if (!r.rejected && !r.crashed) {
    EXPECT_LE(r.bytes_read, r.postdata_usable);
    EXPECT_FALSE(r.heap_overflowed);
  }
}

TEST_P(BoundedLoopProperty, VulnerableServerViolatesIffBodyExceedsBuffer) {
  apps::NullHttpd app;  // v0.5 semantics
  const auto p = GetParam();
  const auto r = app.handle_post(p.content_len, std::string(p.body_len, 'q'));
  if (r.crashed && r.postdata_usable == 0) return;  // calloc failed
  EXPECT_EQ(r.heap_overflowed, r.bytes_read > r.postdata_usable);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BoundedLoopProperty,
    ::testing::Values(PostCase{0, 0}, PostCase{0, 1024}, PostCase{0, 1025},
                      PostCase{0, 5000}, PostCase{100, 100},
                      PostCase{100, 2000}, PostCase{1000, 3000},
                      PostCase{2048, 2048}, PostCase{-800, 256},
                      PostCase{-800, 1024}, PostCase{-1000, 30},
                      PostCase{4096, 10000}));

// --- Property: GHTTPD exploits succeed iff unprotected, over lengths. ---

class GhttpdLengthProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GhttpdLengthProperty, OnlyOverflowingRequestsModifyTheReturnAddress) {
  apps::Ghttpd app;
  const std::size_t len = GetParam();
  const auto r = app.serve(std::string(len, 'a'));
  // len chars land at temp..temp+len-1; the first ret-slot byte is hit at
  // len == 201 ('a' != 0x00). At exactly 200 only the NUL terminator
  // touches the slot's low byte, which is already zero for text addresses.
  EXPECT_EQ(r.ret_modified, len >= apps::Ghttpd::kLogBufferSize + 1)
      << "len=" << len;
}

INSTANTIATE_TEST_SUITE_P(Lengths, GhttpdLengthProperty,
                         ::testing::Values(0, 1, 199, 200, 201, 207, 208, 209,
                                           220, 300, 500));

// --- Property: xterm violation fraction is monotone in the window. -----

class XtermWindowProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(XtermWindowProperty, ViolationCountMatchesClosedForm) {
  apps::XtermLogger app;
  const std::size_t w = GetParam();
  const auto r = app.run_race(w);
  // Victim: 1 check + w no-ops + open + write = w+3 steps; attacker: 2.
  EXPECT_EQ(r.report.total_schedules, fssim::interleaving_count(w + 3, 2));
  // Violations = ways to place an ordered attacker pair into the w+1 gaps
  // between check and open = C(w+2, 2).
  EXPECT_EQ(r.report.violating_schedules,
            static_cast<std::size_t>((w + 2) * (w + 1) / 2));
}

INSTANTIATE_TEST_SUITE_P(Windows, XtermWindowProperty,
                         ::testing::Values(0, 1, 2, 3, 4, 5));

// --- Property: the safe-unlink defence beats EVERY variant of the heap
//     payload, not just the canonical one. Random mutations of the
//     crafted metadata (which may crash the allocator, fizzle, or
//     corrupt elsewhere) must never reach Mcode once pFSM3's check is in
//     place: passing the FD->bk==P && BK->fd==P round-trip while still
//     pointing FD at the GOT is not achievable by byte flips. ----------

class PayloadMutationProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(PayloadMutationProperty, NoMutatedPayloadBeatsSafeUnlink) {
  apps::NullHttpdChecks hardened;
  hardened.heap_safe_unlink = true;
  const auto info = apps::NullHttpd::scout(-800, hardened);
  const auto pristine = apps::NullHttpd::build_overflow_body(info);

  std::uint64_t rng = 0x243F6A8885A308D3ull * (GetParam() + 1);
  auto next = [&rng]() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (int trial = 0; trial < 25; ++trial) {
    auto body = pristine;
    // Flip 1-4 random bytes anywhere in the overflow tail (header, fd, bk).
    const std::size_t tail = info.postdata_usable;
    const std::size_t flips = 1 + next() % 4;
    for (std::size_t f = 0; f < flips; ++f) {
      const std::size_t pos = tail + next() % (body.size() - tail);
      body[pos] = static_cast<std::uint8_t>(
          body[pos] ^ static_cast<std::uint8_t>(1 + next() % 255));
    }
    apps::NullHttpd app{hardened};
    const auto r = app.handle_post(-800, std::string(body.begin(), body.end()));
    EXPECT_FALSE(r.mcode_executed) << "trial " << trial;
    EXPECT_TRUE(app.process().got().unchanged("free")) << "trial " << trial;
  }
  // The canonical payload is of course also stopped.
  apps::NullHttpd app{hardened};
  const auto r =
      app.handle_post(-800, std::string(pristine.begin(), pristine.end()));
  EXPECT_FALSE(r.mcode_executed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PayloadMutationProperty,
                         ::testing::Values(1, 2, 3, 4));

// --- Property: Lemma 2 across every study and every mask (the paper's
//     central claim, exhaustively). --------------------------------------

class LemmaProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LemmaProperty, SecuredOperationImpliesFoiledExploit) {
  const auto studies = apps::all_case_studies();
  ASSERT_LT(GetParam(), studies.size());
  const auto report = analysis::sweep(*studies[GetParam()]);
  EXPECT_TRUE(report.lemma2_holds) << report.study_name;
  EXPECT_TRUE(report.baseline_exploited) << report.study_name;
  EXPECT_TRUE(report.benign_preserved) << report.study_name;
}

INSTANTIATE_TEST_SUITE_P(Studies, LemmaProperty,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 6, 7));

}  // namespace
}  // namespace dfsm
