// Golden outcomes of the problem-text parser.  Every input is parsed
// and its outcome recorded as one line: the error Status text, or a
// digest of ProblemToText of the parsed problem with its fact, edge and
// J counts.  The inputs are the problem files (*.txt) of
// tests/fuzz/corpus/text/ and examples/, a fixed set of seeded byte
// mutations of each (byte flips, insertions, deletions, duplicated
// lines, truncations), and a few hand-written edge cases of the
// grammar.  The text was recorded once and committed as
// tests/golden/parse_outcomes.txt, so a parser rewrite must accept,
// reject and report exactly what the old one did: same problems, same
// line numbers, same messages.
//
// A mismatch writes the actual outcomes to parse_outcomes.actual in the
// working directory (build/tests under ctest).  Never regenerate the
// golden to make a parser change pass.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "io/text_format.h"

#ifndef PREFREP_SOURCE_DIR
#error "parse_golden_test needs PREFREP_SOURCE_DIR (tests/CMakeLists.txt)"
#endif

namespace prefrep {
namespace {

constexpr int kMutantsPerInput = 40;

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return std::string();
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// The .txt files of one source directory, by relative path, sorted.
// CMakeLists.txt is a build file, not a problem: leaving it out keeps
// build edits from moving the golden.
std::vector<std::string> TextFilesUnder(const std::string& relative_dir) {
  std::vector<std::string> out;
  const std::filesystem::path root(PREFREP_SOURCE_DIR);
  for (const auto& entry :
       std::filesystem::directory_iterator(root / relative_dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".txt" &&
        entry.path().filename() != "CMakeLists.txt") {
      out.push_back(relative_dir + "/" + entry.path().filename().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// SplitMix64, kept here so the mutations never move with the library's
// own generators.
uint64_t NextRandom(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h = (h ^ c) * 0x100000001b3ULL;
  }
  return h;
}

// Bytes the grammar gives meaning to, plus a few plain ones.
constexpr std::string_view kAlphabet = " \t\n\r#(),>:-{}01239xjRf";

// Applies one to three seeded byte mutations to `text`.
std::string Mutate(std::string text, uint64_t seed) {
  uint64_t state = seed;
  const int rounds = 1 + static_cast<int>(NextRandom(&state) % 3);
  for (int round = 0; round < rounds; ++round) {
    if (text.empty()) {
      text.push_back(kAlphabet[NextRandom(&state) % kAlphabet.size()]);
      continue;
    }
    const size_t pos = NextRandom(&state) % text.size();
    const char byte = kAlphabet[NextRandom(&state) % kAlphabet.size()];
    switch (NextRandom(&state) % 6) {
      case 0:  // replace one byte
        text[pos] = byte;
        break;
      case 1:  // delete one byte
        text.erase(pos, 1);
        break;
      case 2:  // insert one byte
        text.insert(pos, 1, byte);
        break;
      case 3:  // delete a short run
        text.erase(pos, 1 + NextRandom(&state) % 8);
        break;
      case 4: {  // duplicate the line holding `pos`
        const size_t begin = text.rfind('\n', pos);
        const size_t start = begin == std::string::npos ? 0 : begin + 1;
        size_t end = text.find('\n', pos);
        end = end == std::string::npos ? text.size() : end + 1;
        std::string line = text.substr(start, end - start);
        if (line.empty() || line.back() != '\n') {
          line.insert(line.begin(), '\n');
        }
        text.insert(end, line);
        break;
      }
      default:  // truncate
        text.resize(pos);
        break;
    }
  }
  return text;
}

// Keeps the golden file printable: control and non-ASCII bytes of error
// messages are escaped.
std::string Escape(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\t') {
      out += "\\t";
    } else if (c == '\r') {
      out += "\\r";
    } else if (c < 0x20 || c >= 0x7f) {
      out += "\\x";
      out += kHex[c >> 4];
      out += kHex[c & 0xf];
    } else {
      out += static_cast<char>(c);
    }
  }
  return out;
}

std::string Outcome(std::string_view text) {
  Result<PreferredRepairProblem> parsed = ParseProblemText(text);
  if (!parsed.ok()) {
    return "error " + Escape(parsed.status().ToString());
  }
  const PreferredRepairProblem& p = *parsed;
  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(Fnv1a(ProblemToText(p))));
  return std::string("ok ") + digest +
         " facts=" + std::to_string(p.instance->num_facts()) +
         " edges=" + std::to_string(p.priority->num_edges()) +
         " j=" + std::to_string(p.j.count());
}

// Hand-written corners of the grammar the corpus may not reach.
struct EdgeCase {
  const char* name;
  const char* text;
};

constexpr EdgeCase kEdgeCases[] = {
  {"crlf", "relation R 2\r\nfd R: 1 -> 2\r\nfact a R(x, y)\r\n"
           "fact b R(x, z)\r\nprefer a > b\r\nj a\r\n"},
  {"bare-j", "relation R 1\nfact a R(x)\nj\n"},
  {"j-spaces", "relation R 1\nfact a R(x)\nfact b R(y)\nj  a \t b\n"},
  {"j-tab", "relation R 1\nfact a R(x)\nj\ta\n"},
  {"j-unknown", "relation R 1\nfact a R(x)\nj a zz\n"},
  {"prefer-empty-piece",
   "relation R 2\nfd R: 1 -> 2\nfact a R(x, y)\nfact b R(x, z)\n"
   "prefer a >> b\n"},
  {"prefer-one", "relation R 1\nfact a R(x)\nprefer a\n"},
  {"prefer-chain",
   "relation R 2\nfd R: 1 -> 2\nfact a R(x, y)\nfact b R(x, z)\n"
   "fact c R(x, w)\nprefer a > b > c\nprefer a > b\n"},
  {"prefer-self", "relation R 1\nfact a R(x)\nprefer a > a\n"},
  {"prefer-unknown", "relation R 1\nfact a R(x)\nprefer a > q\n"},
  {"fact-no-term", "relation R 1\nfact a\n"},
  {"fact-tab-label", "relation R 1\nfact\ta R(x)\n"},
  {"fact-label-tab", "relation R 1\nfact a\tR(x)\n"},
  {"fact-empty-parens", "relation R 1\nfact a R()\n"},
  {"fact-empty-constants", "relation R 2\nfact a R(,)\n"},
  {"fact-blank-constant", "relation R 2\nfact a R(x, , y)\n"},
  {"fact-no-name", "relation R 1\nfact a (x)\n"},
  {"fact-no-close", "relation R 1\nfact a R(x\n"},
  {"fact-arity", "relation R 2\nfact a R(x)\n"},
  {"fact-unknown-rel", "relation R 1\nfact a S(x)\n"},
  {"fact-duplicate", "relation R 1\nfact a R(x)\nfact b R(x)\n"},
  {"fact-relabel", "relation R 1\nfact a R(x)\nfact a R(y)\n"},
  {"fact-same-twice", "relation R 1\nfact a R(x)\nfact a R(x)\n"},
  {"fact-nested-parens", "relation R 2\nfact a R(f(x), (y))\n"},
  {"relation-tab", "relation\tR 1\n"},
  {"relation-parts", "relation R 1 2\n"},
  {"relation-arity-zero", "relation R 0\n"},
  {"relation-arity-big", "relation R 99999999999999999999999\n"},
  {"relation-twice", "relation R 1\nrelation R 2\n"},
  {"fd-unnamed-single", "relation R 2\nfd 1 -> 2\n"},
  {"fd-unnamed-multi", "relation R 2\nrelation S 2\nfd 1 -> 2\n"},
  {"fd-unknown-rel", "relation R 2\nfd S: 1 -> 2\n"},
  {"fd-bad", "relation R 2\nfd R: 1 => 2\n"},
  {"comment-only", "# nothing\n   # still nothing\n"},
  {"comment-inline", "relation R 1 # arity one\nfact a R(x) # x\n"},
  {"unknown-directive", "relation R 1\nfacts a R(x)\n"},
  {"empty", ""},
  {"whitespace", " \t \n\r\n"},
  {"utf8", "relation R 1\nfact \xc3\xa9 R(\xe2\x82\xac)\nj \xc3\xa9\n"},
};

std::string AllOutcomes() {
  std::string out;
  auto record = [&out](const std::string& name, std::string_view text) {
    out += name + ": " + Outcome(text) + "\n";
  };
  std::vector<std::string> files = TextFilesUnder("tests/fuzz/corpus/text");
  const std::vector<std::string> examples = TextFilesUnder("examples");
  files.insert(files.end(), examples.begin(), examples.end());
  for (const std::string& file : files) {
    const std::string text =
        ReadFileOrEmpty(std::string(PREFREP_SOURCE_DIR) + "/" + file);
    record(file, text);
    const uint64_t file_seed = Fnv1a(file);
    for (int k = 0; k < kMutantsPerInput; ++k) {
      record(file + " #" + std::to_string(k),
             Mutate(text, file_seed ^ (uint64_t{0x51ed} * (k + 1))));
    }
  }
  for (const EdgeCase& edge : kEdgeCases) {
    record(std::string("edge/") + edge.name, edge.text);
  }
  return out;
}

TEST(ParseGoldenTest, OutcomesMatchTheRecordedGolden) {
  const std::string actual = AllOutcomes();
  const std::string golden = ReadFileOrEmpty(
      std::string(PREFREP_SOURCE_DIR) + "/tests/golden/parse_outcomes.txt");
  if (golden != actual) {
    std::ofstream("parse_outcomes.actual", std::ios::binary) << actual;
    ADD_FAILURE() << "parser outcomes differ from "
                     "tests/golden/parse_outcomes.txt (actual written to "
                     "parse_outcomes.actual)";
  }
}

TEST(ParseGoldenTest, EveryInputIsCovered) {
  EXPECT_GE(TextFilesUnder("tests/fuzz/corpus/text").size(), 5u);
  EXPECT_GE(TextFilesUnder("examples").size(), 1u);
}

}  // namespace
}  // namespace prefrep
