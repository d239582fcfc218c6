// Seeded inputs: a fixed vocabulary and a pure (seed, seq) -> sentence
// function, so the generator and the output check agree without sharing
// state.
#include <string_view>
#include <unordered_map>
#include <vector>

#include "workloads.h"

namespace perfbench {

namespace {

std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

const std::vector<std::string>& Vocab() {
  static const std::vector<std::string> words = [] {
    std::vector<std::string> out;
    for (int i = 0; i < kVocab; ++i) {
      const std::uint64_t h = Mix(0x5eed0000ull + static_cast<unsigned>(i));
      const int len = 1 + static_cast<int>(h % 8);
      std::string w;
      for (int j = 0; j < len; ++j) {
        w += static_cast<char>('a' + (h >> (8 + 5 * j)) % 26);
      }
      // A two-letter suffix from the index keeps every word distinct.
      w += static_cast<char>('a' + i / 26);
      w += static_cast<char>('a' + i % 26);
      out.push_back(std::move(w));
    }
    return out;
  }();
  return words;
}

const std::string& VocabWord(int id) { return Vocab()[id]; }

}  // namespace

int VocabId(std::string_view word) {
  static const std::unordered_map<std::string_view, int> index = [] {
    std::unordered_map<std::string_view, int> m;
    for (int i = 0; i < kVocab; ++i) m.emplace(Vocab()[i], i);
    return m;
  }();
  const auto it = index.find(word);
  return it == index.end() ? -1 : it->second;
}

int SentenceWords(std::uint32_t seed, std::uint64_t seq, int* ids) {
  const std::uint64_t h =
      Mix((static_cast<std::uint64_t>(seed) << 40) ^ seq);
  const int n = 4 + static_cast<int>(h % 5);
  for (int i = 0; i < n; ++i) {
    ids[i] = static_cast<int>(Mix(h + static_cast<unsigned>(i) + 1) % kVocab);
  }
  return n;
}

std::string SentenceText(std::uint32_t seed, std::uint64_t seq) {
  int ids[kMaxWords];
  const int n = SentenceWords(seed, seq, ids);
  std::string s;
  s.reserve(64);
  for (int i = 0; i < n; ++i) {
    if (i > 0) s += ' ';
    s += VocabWord(ids[i]);
  }
  return s;
}

}  // namespace perfbench
