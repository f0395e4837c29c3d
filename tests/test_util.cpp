// Unit tests for the util module: logger formatting, RNG determinism
// and distribution sanity, timers, thread pool, string helpers.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/file_io.hpp"
#include "util/logger.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace crp::util {
namespace {

// ---- formatMessage -------------------------------------------------------

TEST(FormatMessage, SubstitutesPositionalPlaceholders) {
  EXPECT_EQ(formatMessage("a {} c {}", 1, "x"), "a 1 c x");
}

TEST(FormatMessage, NoPlaceholders) {
  EXPECT_EQ(formatMessage("plain"), "plain");
}

TEST(FormatMessage, ExtraArgsIgnored) {
  EXPECT_EQ(formatMessage("only {}", 1, 2, 3), "only 1");
}

TEST(FormatMessage, MissingArgsLeaveTail) {
  EXPECT_EQ(formatMessage("{} and {}", 7), "7 and {}");
}

TEST(Logger, RespectsLevelThreshold) {
  auto sink = std::make_shared<std::ostringstream>();
  Logger::instance().setSink(sink);
  Logger::instance().setLevel(LogLevel::kWarn);
  CRP_LOG_INFO("hidden");
  CRP_LOG_WARN("visible {}", 42);
  Logger::instance().setSink(nullptr);
  Logger::instance().setLevel(LogLevel::kInfo);
  const std::string text = sink->str();
  EXPECT_EQ(text.find("hidden"), std::string::npos);
  EXPECT_NE(text.find("visible 42"), std::string::npos);
}


TEST(FormatMessage, AdjacentPlaceholders) {
  EXPECT_EQ(formatMessage("{}{}", 1, 2), "12");
}

TEST(Logger, LevelRoundTrip) {
  const auto saved = Logger::instance().level();
  Logger::instance().setLevel(LogLevel::kError);
  EXPECT_EQ(Logger::instance().level(), LogLevel::kError);
  EXPECT_FALSE(Logger::instance().enabled(LogLevel::kInfo));
  EXPECT_TRUE(Logger::instance().enabled(LogLevel::kError));
  Logger::instance().setLevel(saved);
}

// ---- Rng -----------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniformInt(3, 7));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 3);
  EXPECT_EQ(*seen.rbegin(), 7);
}

TEST(Rng, UniformIntSingleValue) {
  Rng rng(9);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniformInt(5, 5), 5);
}

TEST(Rng, BernoulliRate) {
  Rng rng(11);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Rng, GeometricRespectsBounds) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    const auto k = rng.geometric(2, 0.5, 10);
    EXPECT_GE(k, 2);
    EXPECT_LE(k, 10);
  }
}

// ---- Stopwatch ------------------------------------------------------------

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(watch.seconds(), 0.005);
}

// ---- ThreadPool ------------------------------------------------------------

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<int> hits(1000, 0);
  pool.parallelFor(hits.size(), [&hits](std::size_t i) { hits[i] += 1; });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ParallelForEmpty) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallelFor(0, [&called](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SingleThreadPoolStillWorks) {
  ThreadPool pool(1);
  std::atomic<long> sum{0};
  pool.parallelFor(100, [&sum](std::size_t i) {
    sum.fetch_add(static_cast<long>(i));
  });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallelFor(256,
                       [](std::size_t i) {
                         if (i == 100) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // The pool must stay usable: no stuck active_ count, no stale error.
  std::vector<int> hits(64, 0);
  pool.parallelFor(hits.size(), [&hits](std::size_t i) { hits[i] = 1; });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ParallelForFirstExceptionWins) {
  ThreadPool pool(4);
  try {
    pool.parallelFor(512, [](std::size_t) {
      throw std::runtime_error("every index throws");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "every index throws");
  }
}

TEST(ThreadPool, DynamicChunkingBalancesSkewedWork) {
  // One index is ~1000x more expensive than the rest.  With dynamic
  // chunk pulling, all indices still run exactly once and the call
  // returns (a static partition would also pass, but this exercises
  // the cursor path with heavily unequal chunk durations).
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(997);
  pool.parallelFor(hits.size(), [&hits](std::size_t i) {
    volatile long spin = (i == 3) ? 2000000 : 2000;
    while (spin > 0) spin = spin - 1;
    hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForExceptionStopsEarly) {
  // After the throwing chunk is observed, remaining chunks are skipped;
  // the executed count must be well short of n on any schedule where
  // the abort flag is seen (we only assert completion + correctness of
  // the executed set, since scheduling is timing-dependent).
  ThreadPool pool(2);
  std::atomic<int> executed{0};
  EXPECT_THROW(pool.parallelFor(4096,
                                [&executed](std::size_t i) {
                                  if (i == 0) throw 42;
                                  executed.fetch_add(1);
                                }),
               int);
  EXPECT_LE(executed.load(), 4096);
}

// ---- string utils ------------------------------------------------------------

TEST(StringUtil, SplitWhitespace) {
  const auto tokens = splitWhitespace("  a\tbb \n ccc ");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0], "a");
  EXPECT_EQ(tokens[1], "bb");
  EXPECT_EQ(tokens[2], "ccc");
}

TEST(StringUtil, SplitWhitespaceEmpty) {
  EXPECT_TRUE(splitWhitespace("   ").empty());
  EXPECT_TRUE(splitWhitespace("").empty());
}

TEST(StringUtil, SplitKeepsEmptyFields) {
  const auto fields = split("a,,b,", ',');
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[3], "");
}

TEST(StringUtil, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("x"), "x");
  EXPECT_EQ(trim("   "), "");
}

TEST(StringUtil, FirstTokenIs) {
  EXPECT_TRUE(firstTokenIs("  MACRO foo", "MACRO"));
  EXPECT_TRUE(firstTokenIs("MACRO", "MACRO"));
  EXPECT_FALSE(firstTokenIs("MACROS foo", "MACRO"));
  EXPECT_FALSE(firstTokenIs("x MACRO", "MACRO"));
}

TEST(StringUtil, FormatDouble) {
  EXPECT_EQ(formatDouble(1.23456, 2), "1.23");
  EXPECT_EQ(formatDouble(-0.5, 1), "-0.5");
}

TEST(StringUtil, Padding) {
  EXPECT_EQ(padLeft("ab", 4), "  ab");
  EXPECT_EQ(padRight("ab", 4), "ab  ");
  EXPECT_EQ(padLeft("abcdef", 4), "abcdef");
}

// ---- Logger sinks ----------------------------------------------------------

TEST(Logger, SetSinkOwnsTheStream) {
  Logger logger;
  auto sink = std::make_shared<std::ostringstream>();
  logger.setSink(sink);
  logger.write(LogLevel::kInfo, formatMessage("owned {}", 1));
  EXPECT_NE(sink->str().find("owned 1"), std::string::npos);
  EXPECT_EQ(logger.sink(), sink);
}

TEST(Logger, MacrosWriteToTheProcessLogger) {
  Logger& process = Logger::instance();
  const std::shared_ptr<std::ostream> previous = process.sink();
  auto sink = std::make_shared<std::ostringstream>();
  process.setSink(sink);
  CRP_LOG_WARN("process {}", 9);
  process.setSink(previous);
  EXPECT_NE(sink->str().find("[warn ] process 9"), std::string::npos);
}

// The dangling-sink regression (run under TSan in the fuzz
// script's sanitizer leg): one thread logs while another swaps the
// sink.  With a non-owning raw-pointer sink the writer could keep
// using a destroyed stream; shared_ptr sinks swapped under the write
// mutex make every line land in a stream that is still alive.
TEST(Logger, SinkSwapWhileLoggingIsSafe) {
  Logger logger;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      logger.write(LogLevel::kWarn, formatMessage("swap race {}", 1));
    }
  });
  for (int i = 0; i < 200; ++i) {
    logger.setSink(std::make_shared<std::ostringstream>());
  }
  stop.store(true, std::memory_order_release);
  writer.join();
  logger.setSink(nullptr);
}

// ---- writeFileAtomic -------------------------------------------------------

namespace fs = std::filesystem;

std::string tempDirFor(const char* name) {
  const fs::path dir = fs::temp_directory_path() /
                       ("crp_test_util_" + std::to_string(::getpid())) / name;
  fs::create_directories(dir);
  return dir.string();
}

TEST(FileIo, WriteFileAtomicWritesContent) {
  const std::string path = tempDirFor("write") + "/out.txt";
  std::string error;
  ASSERT_TRUE(writeFileAtomic(path, "payload\n", &error)) << error;
  EXPECT_EQ(readFile(path), "payload\n");
}

TEST(FileIo, WriteFileAtomicReplacesExisting) {
  const std::string path = tempDirFor("replace") + "/out.txt";
  ASSERT_TRUE(writeFileAtomic(path, "old"));
  ASSERT_TRUE(writeFileAtomic(path, "new"));
  EXPECT_EQ(readFile(path), "new");
}

TEST(FileIo, WriteFileAtomicFailsOnMissingDirectory) {
  const std::string path =
      tempDirFor("missing") + "/no/such/dir/out.txt";
  std::string error;
  EXPECT_FALSE(writeFileAtomic(path, "x", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(fs::exists(path));
}

TEST(FileIo, ProducerFailureLeavesNoFileBehind) {
  const std::string dir = tempDirFor("producer");
  const std::string path = dir + "/out.txt";
  std::string error;
  EXPECT_FALSE(writeFileAtomic(
      path, [](std::ostream& os) -> bool { os << "partial"; return false; },
      &error));
  EXPECT_FALSE(fs::exists(path));
  // No temp droppings either — the half-written file must be cleaned up.
  EXPECT_TRUE(fs::is_empty(dir));
}

// ---- readFile --------------------------------------------------------------

TEST(FileIo, ReadFileReturnsWholeContent) {
  const std::string dir = tempDirFor("read");
  const std::string big(100000, 'x');
  ASSERT_TRUE(writeFileAtomic(dir + "/big.txt", big + "\nend"));
  EXPECT_EQ(readFile(dir + "/big.txt"), big + "\nend");
  ASSERT_TRUE(writeFileAtomic(dir + "/empty.txt", ""));
  EXPECT_EQ(readFile(dir + "/empty.txt"), "");
}

TEST(FileIo, ReadFileThrowsNamingPathAndReason) {
  const std::string dir = tempDirFor("read_fail");
  const auto messageOf = [](const std::string& path) -> std::string {
    try {
      readFile(path);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "no error";
  };
  // A failed open.
  EXPECT_EQ(messageOf(dir + "/missing.txt"),
            "cannot read " + dir + "/missing.txt: No such file or directory");
  // A good open whose read fails must not read as empty text.
  EXPECT_EQ(messageOf(dir), "cannot read " + dir + ": Is a directory");
}

// ---- appendLineAtomic ------------------------------------------------------

TEST(FileIo, AppendLineAtomicAppendsTerminatedLines) {
  const std::string path = tempDirFor("append") + "/ledger.jsonl";
  std::string error;
  ASSERT_TRUE(appendLineAtomic(path, "first", &error)) << error;
  ASSERT_TRUE(appendLineAtomic(path, "second", &error)) << error;
  EXPECT_EQ(readFile(path), "first\nsecond\n");
}

TEST(FileIo, AppendLineAtomicRepairsTornTail) {
  // A crash mid-append can leave the file without a trailing newline;
  // the next append must start a fresh line so the torn fragment stays
  // confined to its own (skippable) line.
  const std::string path = tempDirFor("torn") + "/ledger.jsonl";
  {
    std::ofstream out(path);
    out << "good\ntorn-fragmen";
  }
  ASSERT_TRUE(appendLineAtomic(path, "next"));
  EXPECT_EQ(readFile(path), "good\ntorn-fragmen\nnext\n");
}

TEST(FileIo, AppendLineAtomicConcurrentAppendsKeepLinesIntact) {
  // O_APPEND + one write() per line: concurrent appenders may
  // interleave lines in any order, but never within a line.
  const std::string path = tempDirFor("concurrent") + "/ledger.jsonl";
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&path, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::string line =
            "t" + std::to_string(t) + ":" + std::to_string(i) + ":payload";
        ASSERT_TRUE(appendLineAtomic(path, line));
      }
    });
  }
  for (std::thread& w : workers) w.join();

  std::istringstream in(readFile(path));
  std::string line;
  std::set<std::string> seen;
  while (std::getline(in, line)) {
    // Every line is exactly one of the written payloads — no tearing.
    ASSERT_EQ(line.find(":payload"), line.size() - 8) << line;
    seen.insert(line);
  }
  EXPECT_EQ(seen.size(),
            static_cast<std::size_t>(kThreads * kPerThread));
}

// ---- shared-pool reentrancy ------------------------------------------------

// A parallelFor body that itself calls parallelFor on the same pool
// must complete (per-call completion state, caller participates) — the
// serve daemon runs framework phases and router batches of several
// sessions on one pool, so outer/inner nesting is the steady state.
TEST(ThreadPool, NestedParallelForOnOnePoolCompletes) {
  ThreadPool pool(2);
  constexpr int kOuter = 8;
  constexpr int kInner = 64;
  std::atomic<int> total{0};
  pool.parallelFor(kOuter, [&](std::size_t) {
    pool.parallelFor(kInner, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), kOuter * kInner);
}

TEST(ThreadPool, ConcurrentParallelForCallersDoNotCrossWait) {
  ThreadPool pool(4);
  constexpr int kIterations = 2000;
  std::atomic<int> a{0};
  std::atomic<int> b{0};
  std::thread ta([&] {
    pool.parallelFor(kIterations,
                     [&](std::size_t) { a.fetch_add(1); });
  });
  std::thread tb([&] {
    pool.parallelFor(kIterations,
                     [&](std::size_t) { b.fetch_add(1); });
  });
  ta.join();
  tb.join();
  EXPECT_EQ(a.load(), kIterations);
  EXPECT_EQ(b.load(), kIterations);
}

TEST(ThreadPool, TaskWrapperAppliesAtSubmitTime) {
  const ThreadPool::TaskWrapper previous = ThreadPool::taskWrapper();
  static std::atomic<int> wrapped{0};
  ThreadPool::setTaskWrapper([](ThreadPool::Task task) -> ThreadPool::Task {
    return [task = std::move(task)] {
      wrapped.fetch_add(1, std::memory_order_relaxed);
      task();
    };
  });
  {
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    // 100 indices on 2 workers: grain 3, 34 grains, so parallelFor
    // submits min(workers, grains - 1) = 2 helpers.
    pool.parallelFor(100, [&ran](std::size_t) {
      ran.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(ran.load(), 100);
  }  // every queued helper runs before the workers exit
  EXPECT_EQ(wrapped.load(), 2);
  ThreadPool::setTaskWrapper(previous);
}

}  // namespace
}  // namespace crp::util
