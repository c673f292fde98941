// prefrepd — a resident preferred-repair server over one problem file.
//
// Loads a problem in the text format of src/io/text_format.h, builds a
// long-lived SessionContext (src/serve/session.h), and then executes
// session ops (src/io/ops_format.h) one per line:
//
//   prefrepd <file> [options]             # ops from stdin (REPL / pipe)
//   prefrepd <file> --script <ops-file>   # ops from a batch script
//
// Each op's reply is printed to stdout, followed by a blank line so
// multi-line replies (witnesses, degradation summaries, answer lists)
// stay framed.  An op error prints "error: <message>" and the loop
// continues — a serving process does not die on one bad request.
//
// Options:
//   --threads N       per-block solver threads (0 = hardware, 1 = serial)
//   --cache[=N]       block-solve cache (N = capacity in entries)
//   --deadline-ms N / --max-nodes N / --max-block N
//                     initial per-request budget (see the budget op)
//   --wal <path>      durable mode: log acknowledged edits to a WAL and
//                     recover from <path> (+ snapshot) on startup
//                     (docs/durability.md)
//   --snapshot <path> snapshot location (default: <wal>.snapshot)
//   --snapshot-every N  checkpoint after every N logged edits
//   --fsync=MODE      always | batch | off (default always)
//
// In durable mode startup prints one "recovery: ..." line (snapshot
// loaded / N ops replayed / torn tail dropped), and a clean EOF
// shutdown checkpoints: snapshot published, WAL truncated.  Recovery
// failures (corrupt state beyond the torn-tail rule) exit 5 with a
// DataLoss report rather than serving wrong answers.
//
// Input hardening: lines are read through a bounded reader — a line
// over the 1 MiB ops cap (kMaxSessionOpLineBytes) is rejected with an
// error reply and skipped without ever buffering it whole, so a hostile
// pipe cannot make the daemon allocate without bound.
//
// Exit codes: 0 = served, 2 = usage, 3 = input error, 5 = data loss.
//
// The edit → query → edit loop is where the serve layer earns its keep:
// every edit patches the conflict graph and block decomposition in
// place and erases no cache entry.  An edited block hashes to a new
// fingerprint, so a query after an edit re-solves the edited block,
// while every untouched block's cached answers still hit
// (bench/bench_serve.cc measures the gap against per-request
// rebuilding).

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "io/ops_format.h"
#include "io/text_format.h"
#include "persist/durable_session.h"
#include "persist/wal.h"
#include "serve/session.h"

using namespace prefrep;

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: prefrepd <file> [--script <ops-file>] [--threads N] "
      "[--cache[=N]]\n"
      "                [--deadline-ms N] [--max-nodes N] [--max-block N]\n"
      "                [--wal <path>] [--snapshot <path>] "
      "[--snapshot-every N]\n"
      "                [--fsync=always|batch|off]\n"
      "ops (one per line, '#' comments): insert, delete, prefer, jset, "
      "jadd, jdel,\n"
      "  budget, check, count, construct, cqa, stats  (see "
      "docs/serving.md)\n");
  return 2;
}

// Reads one '\n'-terminated line into `line`, buffering at most
// max_bytes + 1 characters.  An over-cap line is consumed to its end
// but reported (*over_cap = true) with only a truncated prefix kept, so
// memory stays bounded no matter what the pipe feeds us.  Returns false
// at EOF with nothing read.
bool ReadBoundedLine(std::istream& in, size_t max_bytes, std::string* line,
                     bool* over_cap) {
  line->clear();
  *over_cap = false;
  int c = in.get();
  if (c == std::char_traits<char>::eof()) {
    return false;
  }
  for (; c != std::char_traits<char>::eof() && c != '\n'; c = in.get()) {
    if (line->size() > max_bytes) {
      *over_cap = true;  // keep consuming, stop buffering
      continue;
    }
    line->push_back(static_cast<char>(c));
  }
  return true;
}

// One op executor that routes through the durable wrapper when one is
// configured (so WAL logging sees exactly the acknowledged edits).
Result<std::string> ExecuteOp(SessionContext& session,
                              DurableSession* durable, const SessionOp& op) {
  if (durable != nullptr) {
    return durable->Execute(op);
  }
  return session.Execute(op);
}

// Executes one raw input line; returns the reply (or the error text).
// Blank/comment lines yield an empty reply.
std::string ServeLine(SessionContext& session, DurableSession* durable,
                      const std::string& raw) {
  std::string line = raw;
  const size_t hash = line.find('#');
  if (hash != std::string::npos) {
    line.resize(hash);
  }
  const size_t start = line.find_first_not_of(" \t\r\n");
  if (start == std::string::npos) {
    return "";
  }
  Result<SessionOp> op = ParseSessionOp(line);
  if (!op.ok()) {
    return "error: " + op.status().message();
  }
  Result<std::string> reply = ExecuteOp(session, durable, *op);
  if (!reply.ok()) {
    return "error: " + reply.status().message();
  }
  return *reply;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const char* problem_path = argv[1];
  const char* script_path = nullptr;
  SessionOptions options;
  DurabilityOptions durability;
  bool durable_mode = false;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--script") == 0 && i + 1 < argc) {
      script_path = argv[++i];
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      options.threads = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--cache") == 0) {
      options.cache_capacity = BlockSolveCache::kDefaultCapacity;
    } else if (std::strncmp(argv[i], "--cache=", 8) == 0) {
      options.cache_capacity = static_cast<size_t>(std::atoll(argv[i] + 8));
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0 && i + 1 < argc) {
      options.budget.deadline_ms = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--max-nodes") == 0 && i + 1 < argc) {
      options.budget.max_nodes = static_cast<uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--max-block") == 0 && i + 1 < argc) {
      options.budget.max_block = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--wal") == 0 && i + 1 < argc) {
      durability.wal_path = argv[++i];
      durable_mode = true;
    } else if (std::strcmp(argv[i], "--snapshot") == 0 && i + 1 < argc) {
      durability.snapshot_path = argv[++i];
    } else if (std::strcmp(argv[i], "--snapshot-every") == 0 &&
               i + 1 < argc) {
      durability.snapshot_every =
          static_cast<uint64_t>(std::atoll(argv[++i]));
    } else if (std::strncmp(argv[i], "--fsync=", 8) == 0) {
      Result<FsyncMode> mode = ParseFsyncMode(argv[i] + 8);
      if (!mode.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     mode.status().ToString().c_str());
        return 2;
      }
      durability.fsync = *mode;
    } else if (std::strncmp(argv[i], "--test-crash-at-wal-record=", 27) ==
               0) {
      // Crash-fault injection for the durability battery: die (exit
      // 137, SIGKILL-alike) after persisting only B bytes of the K-th
      // WAL record.  Format K[:B], default B = 0.
      const char* spec = argv[i] + 27;
      char* colon = nullptr;
      const uint64_t record =
          static_cast<uint64_t>(std::strtoull(spec, &colon, 10));
      size_t partial = 0;
      if (colon != nullptr && *colon == ':') {
        partial = static_cast<size_t>(std::strtoull(colon + 1, nullptr, 10));
      }
      ForceCrashAtWalRecordForTesting(record, partial);
    } else {
      return Usage();
    }
  }
  if (!durable_mode && !durability.snapshot_path.empty()) {
    std::fprintf(stderr, "error: --snapshot requires --wal\n");
    return 2;
  }
  Result<PreferredRepairProblem> problem = ParseProblemFile(problem_path);
  if (!problem.ok()) {
    std::fprintf(stderr, "error: %s\n", problem.status().ToString().c_str());
    return 3;
  }

  std::unique_ptr<SessionContext> plain_session;
  std::unique_ptr<DurableSession> durable_session;
  SessionContext* session = nullptr;
  if (durable_mode) {
    Result<std::unique_ptr<DurableSession>> opened =
        DurableSession::Open(*problem, options, durability);
    if (!opened.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   opened.status().ToString().c_str());
      return opened.status().code() == StatusCode::kDataLoss ? 5 : 3;
    }
    durable_session = std::move(opened).value();
    session = &durable_session->session();
    std::printf("recovery: %s\n\n",
                durable_session->recovery().ToString().c_str());
    std::fflush(stdout);
  } else {
    Result<std::unique_ptr<SessionContext>> created =
        SessionContext::Create(*problem, options);
    if (!created.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   created.status().ToString().c_str());
      return 3;
    }
    plain_session = std::move(created).value();
    session = plain_session.get();
  }

  std::istream* in = &std::cin;
  std::ifstream script;
  if (script_path != nullptr) {
    script.open(script_path);
    if (!script.is_open()) {
      std::fprintf(stderr, "error: cannot open script '%s'\n", script_path);
      return 3;
    }
    in = &script;
  }
  std::string line;
  bool over_cap = false;
  while (ReadBoundedLine(*in, kMaxSessionOpLineBytes, &line, &over_cap)) {
    std::string reply;
    if (over_cap) {
      reply = "error: line exceeds the " +
              std::to_string(kMaxSessionOpLineBytes) +
              "-byte cap and was dropped";
    } else {
      reply = ServeLine(*session, durable_session.get(), line);
    }
    if (!reply.empty()) {
      std::printf("%s\n\n", reply.c_str());
      std::fflush(stdout);
    }
  }
  if (durable_session != nullptr) {
    // Clean shutdown: publish a final snapshot and truncate the WAL it
    // subsumes, so the next boot replays nothing.
    const Status closed = durable_session->Close();
    if (!closed.ok()) {
      std::fprintf(stderr, "error: shutdown checkpoint failed: %s\n",
                   closed.ToString().c_str());
      return 3;
    }
  }
  return 0;
}
