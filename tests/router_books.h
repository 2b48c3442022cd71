// The router's quiesce books, shared by the test suites that drain a
// stack and then check that nothing was lost on the way.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "obs/obs.h"

namespace nvmetro {

/// After a drained run: every request reached exactly one outcome
/// (requests == completed + failed), every per-path send was matched by
/// a completion, an abort or a timeout, and no trace span is left open.
/// A stack without a router records none of these and passes.
inline void ExpectRouterBooksBalance(const obs::Observability& obs) {
  const obs::MetricsRegistry& m = obs.metrics();
  EXPECT_EQ(m.CounterValue("router.requests"),
            m.CounterValue("router.completed") +
                m.CounterValue("router.failed"))
      << "a request vanished without completing or failing";
  for (const char* path : {"fast", "notify", "kernel"}) {
    std::string base = std::string("router.") + path;
    EXPECT_EQ(m.CounterValue(base + ".sends"),
              m.CounterValue(base + ".completions") +
                  m.CounterValue(base + ".aborts") +
                  m.CounterValue(base + ".timeouts"))
        << base << " send/completion imbalance";
  }
  EXPECT_EQ(obs.trace().open_requests(), 0u)
      << "trace spans leaked: a request never reached its VCQ";
}

}  // namespace nvmetro
