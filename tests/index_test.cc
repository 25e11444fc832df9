// Exhaustive tests for the boundary skip-index and its cursors:
//  - random access at EVERY top-level boundary of XMark and MEDLINE
//    documents (granularity-1 index) drains byte-identically to the
//    corresponding suffix of the serial projection, with the index's
//    projection offsets agreeing with the drained byte counts;
//  - the granularity-1 entry offsets are exactly the tokenizer's
//    top-level element starts;
//  - cursor pagination (Next) re-assembles the serial projection from
//    spans, and serialized cursor tokens restore mid-stream without
//    losing or duplicating a byte;
//  - persistence round-trips through Save/Load; corrupted, truncated,
//    version-bumped, stale-digest, and stale-tables index files (and
//    tampered cursor tokens) all fail closed with a clear Status, never
//    wrong bytes.

#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/io.h"
#include "core/prefilter.h"
#include "index/boundary_index.h"
#include "index/cursor.h"
#include "parallel/thread_pool.h"
#include "xml/tokenizer.h"
#include "xmlgen/medline.h"
#include "xmlgen/xmark.h"

namespace smpx::index {
namespace {

core::Prefilter CompileXmark() {
  auto paths = paths::ProjectionPath::ParseList(
      "/site/people/person@ /site/people/person/name#");
  EXPECT_TRUE(paths.ok());
  auto pf = core::Prefilter::Compile(xmlgen::XmarkDtd(), std::move(*paths));
  EXPECT_TRUE(pf.ok()) << pf.status().ToString();
  return std::move(*pf);
}

core::Prefilter CompileMedline() {
  auto paths = paths::ProjectionPath::ParseList(
      "/MedlineCitationSet/MedlineCitation/MedlineJournalInfo# "
      "/MedlineCitationSet/MedlineCitation/DateCompleted#");
  EXPECT_TRUE(paths.ok());
  auto pf = core::Prefilter::Compile(xmlgen::MedlineDtd(), std::move(*paths));
  EXPECT_TRUE(pf.ok()) << pf.status().ToString();
  return std::move(*pf);
}

std::string XmarkDoc(uint64_t bytes) {
  xmlgen::XmarkOptions gen;
  gen.target_bytes = bytes;
  gen.seed = 5;
  return xmlgen::GenerateXmark(gen);
}

std::string MedlineDoc(uint64_t bytes) {
  xmlgen::MedlineOptions gen;
  gen.target_bytes = bytes;
  gen.seed = 5;
  return xmlgen::GenerateMedline(gen);
}

/// Byte offsets of every top-level element start per the full tokenizer;
/// ground truth for the granularity-1 entry set.
std::vector<uint64_t> TokenizerTopLevelStarts(std::string_view doc) {
  std::vector<uint64_t> starts;
  xml::Tokenizer tok(doc);
  xml::Token t;
  int64_t depth = 0;
  while (tok.Next(&t)) {
    switch (t.type) {
      case xml::TokenType::kStartTag:
        if (depth == 1) starts.push_back(t.begin);
        ++depth;
        break;
      case xml::TokenType::kEmptyTag:
        if (depth == 1) starts.push_back(t.begin);
        break;
      case xml::TokenType::kEndTag:
        --depth;
        break;
      default:
        break;
    }
  }
  return starts;
}

Result<BoundaryIndex> BuildEveryBoundary(const core::Prefilter& pf,
                                         const std::string& doc) {
  parallel::ThreadPool pool(3);
  BoundaryIndexOptions opts;
  opts.granularity_bytes = 1;
  return BoundaryIndex::Build(pf.tables(), doc, &pool, opts);
}

/// The core differential property at every boundary of `doc`.
void ExpectEveryBoundaryResumes(const core::Prefilter& pf,
                                const std::string& doc) {
  auto serial = pf.RunOnBuffer(doc);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  auto idx = BuildEveryBoundary(pf, doc);
  ASSERT_TRUE(idx.ok()) << idx.status().ToString();
  EXPECT_EQ(idx->doc_size(), doc.size());

  std::vector<uint64_t> truth = TokenizerTopLevelStarts(doc);
  ASSERT_FALSE(truth.empty());
  ASSERT_EQ(idx->entries().size(), truth.size())
      << "granularity-1 index must hold every top-level boundary";
  for (size_t i = 0; i < truth.size(); ++i) {
    EXPECT_EQ(idx->entries()[i].offset, truth[i]) << "entry " << i;
  }

  for (size_t i = 0; i < idx->entries().size(); ++i) {
    const IndexEntry& e = idx->entries()[i];
    auto cur = Cursor::OpenAt(*idx, pf.tables(), doc, e.offset);
    ASSERT_TRUE(cur.ok()) << cur.status().ToString();
    EXPECT_EQ(cur->position(), e.offset);
    EXPECT_EQ(cur->output_position(), e.out_offset);
    ASSERT_LE(e.out_offset, serial->size()) << "entry " << i;
    StringSink sink;
    ASSERT_TRUE(cur->Drain(&sink).ok());
    EXPECT_EQ(sink.str(), serial->substr(static_cast<size_t>(e.out_offset)))
        << "resume at boundary " << i << " (offset " << e.offset
        << ") diverged from the serial suffix";
    EXPECT_TRUE(cur->at_end());
    EXPECT_EQ(cur->output_position(), serial->size());
  }
}

TEST(BoundaryIndexTest, XmarkEveryBoundaryResumesByteIdentically) {
  core::Prefilter pf = CompileXmark();
  ExpectEveryBoundaryResumes(pf, XmarkDoc(16 << 10));
}

TEST(BoundaryIndexTest, MedlineEveryBoundaryResumesByteIdentically) {
  core::Prefilter pf = CompileMedline();
  ExpectEveryBoundaryResumes(pf, MedlineDoc(16 << 10));
}

TEST(BoundaryIndexTest, OpenAtMidRecordTargetsResumeAtPrecedingBoundary) {
  core::Prefilter pf = CompileMedline();
  std::string doc = MedlineDoc(8 << 10);
  auto serial = pf.RunOnBuffer(doc);
  ASSERT_TRUE(serial.ok());
  auto idx = BuildEveryBoundary(pf, doc);
  ASSERT_TRUE(idx.ok()) << idx.status().ToString();
  ASSERT_GE(idx->entries().size(), 3u);

  // A target strictly inside span i opens at entry i; a target before the
  // first boundary resumes from the document start.
  const IndexEntry& e1 = idx->entries()[1];
  uint64_t mid = e1.offset + (idx->entries()[2].offset - e1.offset) / 2;
  auto cur = Cursor::OpenAt(*idx, pf.tables(), doc, mid);
  ASSERT_TRUE(cur.ok());
  EXPECT_EQ(cur->position(), e1.offset);

  auto head = Cursor::OpenAt(*idx, pf.tables(), doc, 0);
  ASSERT_TRUE(head.ok());
  EXPECT_EQ(head->position(), 0u);
  EXPECT_EQ(head->output_position(), 0u);
  StringSink sink;
  ASSERT_TRUE(head->Drain(&sink).ok());
  EXPECT_EQ(sink.str(), *serial);

  // Past the last boundary: open at the last entry; past the end: same.
  auto tail = Cursor::OpenAt(*idx, pf.tables(), doc, doc.size() + 1000);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(tail->position(), idx->entries().back().offset);
}

TEST(BoundaryIndexTest, PaginationReassemblesTheSerialProjection) {
  core::Prefilter pf = CompileMedline();
  std::string doc = MedlineDoc(8 << 10);
  auto serial = pf.RunOnBuffer(doc);
  ASSERT_TRUE(serial.ok());
  auto idx = BuildEveryBoundary(pf, doc);
  ASSERT_TRUE(idx.ok());
  const size_t spans = idx->entries().size() + 1;

  for (size_t step : {size_t{1}, size_t{2}, size_t{5}}) {
    auto cur = Cursor::OpenAt(*idx, pf.tables(), doc, 0);
    ASSERT_TRUE(cur.ok());
    StringSink sink;
    size_t consumed = 0;
    while (!cur->at_end()) {
      auto n = cur->Next(step, &sink);
      ASSERT_TRUE(n.ok()) << n.status().ToString();
      ASSERT_GT(*n, 0u);
      consumed += *n;
      ASSERT_LE(consumed, spans);
    }
    EXPECT_EQ(consumed, spans) << "step=" << step;
    EXPECT_EQ(sink.str(), *serial) << "step=" << step;
    // At the end, Next is a no-op reporting zero spans.
    auto n = cur->Next(step, &sink);
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(*n, 0u);
  }
}

TEST(BoundaryIndexTest, CursorTokensRestoreMidStream) {
  core::Prefilter pf = CompileXmark();
  std::string doc = XmarkDoc(8 << 10);
  auto serial = pf.RunOnBuffer(doc);
  ASSERT_TRUE(serial.ok());
  auto idx = BuildEveryBoundary(pf, doc);
  ASSERT_TRUE(idx.ok());

  // Walk one span at a time; at every pause, a restored token must drain
  // to exactly the bytes the original cursor would drain to.
  auto cur = Cursor::OpenAt(*idx, pf.tables(), doc, 0);
  ASSERT_TRUE(cur.ok());
  StringSink walked;
  while (!cur->at_end()) {
    std::string token = cur->SaveToken();
    auto restored = Cursor::Restore(*idx, pf.tables(), doc, token);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_EQ(restored->position(), cur->position());
    EXPECT_EQ(restored->output_position(), cur->output_position());
    StringSink rest;
    ASSERT_TRUE(restored->Drain(&rest).ok());
    EXPECT_EQ(walked.str() + rest.str(), *serial)
        << "token restored at position " << cur->position()
        << " lost or duplicated bytes";
    auto n = cur->Next(1, &walked);
    ASSERT_TRUE(n.ok());
  }
  EXPECT_EQ(walked.str(), *serial);

  // A token saved at the very end restores to an at-end cursor.
  auto done = Cursor::Restore(*idx, pf.tables(), doc, cur->SaveToken());
  ASSERT_TRUE(done.ok());
  EXPECT_TRUE(done->at_end());
  StringSink empty;
  ASSERT_TRUE(done->Drain(&empty).ok());
  EXPECT_TRUE(empty.str().empty());
}

TEST(BoundaryIndexTest, SaveLoadRoundTripPreservesEverything) {
  core::Prefilter pf = CompileMedline();
  std::string doc = MedlineDoc(8 << 10);
  auto idx = BuildEveryBoundary(pf, doc);
  ASSERT_TRUE(idx.ok());
  std::string bytes = idx->Serialize();

  auto loaded = BoundaryIndex::Load(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->doc_size(), idx->doc_size());
  EXPECT_EQ(loaded->doc_digest(), idx->doc_digest());
  EXPECT_EQ(loaded->tables_fingerprint(), idx->tables_fingerprint());
  ASSERT_EQ(loaded->entries().size(), idx->entries().size());
  for (size_t i = 0; i < idx->entries().size(); ++i) {
    const IndexEntry& a = idx->entries()[i];
    const IndexEntry& b = loaded->entries()[i];
    EXPECT_EQ(a.offset, b.offset);
    EXPECT_EQ(a.out_offset, b.out_offset);
    EXPECT_EQ(a.checkpoint.state, b.checkpoint.state);
    EXPECT_EQ(a.checkpoint.cursor, b.checkpoint.cursor);
    EXPECT_EQ(a.checkpoint.nesting_depth, b.checkpoint.nesting_depth);
    EXPECT_EQ(a.checkpoint.copy_depth, b.checkpoint.copy_depth);
    EXPECT_EQ(a.checkpoint.copy_flushed, b.checkpoint.copy_flushed);
    EXPECT_EQ(a.checkpoint.prolog_done, b.checkpoint.prolog_done);
    EXPECT_EQ(a.checkpoint.jump_pending, b.checkpoint.jump_pending);
  }
  ASSERT_TRUE(loaded->Matches(doc, pf.tables()).ok());

  // And a cursor over the LOADED index serves the same bytes.
  auto serial = pf.RunOnBuffer(doc);
  ASSERT_TRUE(serial.ok());
  const IndexEntry& mid = loaded->entries()[loaded->entries().size() / 2];
  auto cur = Cursor::OpenAt(*loaded, pf.tables(), doc, mid.offset);
  ASSERT_TRUE(cur.ok());
  StringSink sink;
  ASSERT_TRUE(cur->Drain(&sink).ok());
  EXPECT_EQ(sink.str(), serial->substr(static_cast<size_t>(mid.out_offset)));
}

TEST(BoundaryIndexTest, EveryTruncationAndByteFlipFailsClosed) {
  core::Prefilter pf = CompileMedline();
  std::string doc = MedlineDoc(2 << 10);
  auto idx = BuildEveryBoundary(pf, doc);
  ASSERT_TRUE(idx.ok());
  std::string bytes = idx->Serialize();
  ASSERT_TRUE(BoundaryIndex::Load(bytes).ok());

  for (size_t len = 0; len < bytes.size(); ++len) {
    auto r = BoundaryIndex::Load(std::string_view(bytes).substr(0, len));
    EXPECT_FALSE(r.ok()) << "truncation to " << len << " bytes loaded";
  }
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string mutated = bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x5a);
    auto r = BoundaryIndex::Load(mutated);
    EXPECT_FALSE(r.ok()) << "flip at byte " << i << " loaded";
  }
  {
    std::string padded = bytes + "x";
    EXPECT_FALSE(BoundaryIndex::Load(padded).ok()) << "trailing junk loaded";
  }
}

TEST(BoundaryIndexTest, StaleDigestAndStaleTablesFailClosed) {
  core::Prefilter pf = CompileMedline();
  std::string doc = MedlineDoc(4 << 10);
  auto idx = BuildEveryBoundary(pf, doc);
  ASSERT_TRUE(idx.ok());

  // Same size, one content byte changed: the digest must catch it.
  std::string mutated = doc;
  size_t text_pos = mutated.find("</");  // flip inside preceding text/tag
  ASSERT_NE(text_pos, std::string::npos);
  mutated[text_pos + 1] = mutated[text_pos + 1] == 'X' ? 'Y' : 'X';
  Status stale = idx->Matches(mutated, pf.tables());
  EXPECT_FALSE(stale.ok());
  EXPECT_NE(stale.ToString().find("digest"), std::string::npos)
      << stale.ToString();
  EXPECT_FALSE(
      Cursor::OpenAt(*idx, pf.tables(), mutated, 0).ok());

  // A different document size fails before hashing.
  EXPECT_FALSE(idx->Matches(doc + " ", pf.tables()).ok());

  // Same document, different compiled tables (different projection
  // paths): the fingerprint must catch it.
  auto other_paths = paths::ProjectionPath::ParseList(
      "/MedlineCitationSet/MedlineCitation/Article#");
  ASSERT_TRUE(other_paths.ok());
  auto other =
      core::Prefilter::Compile(xmlgen::MedlineDtd(), std::move(*other_paths));
  ASSERT_TRUE(other.ok());
  Status wrong_tables = idx->Matches(doc, other->tables());
  EXPECT_FALSE(wrong_tables.ok());
  EXPECT_NE(wrong_tables.ToString().find("tables"), std::string::npos);
  EXPECT_FALSE(Cursor::OpenAt(*idx, other->tables(), doc, 0).ok());

  // The original triple still opens.
  EXPECT_TRUE(Cursor::OpenAt(*idx, pf.tables(), doc, 0).ok());
}

TEST(BoundaryIndexTest, TamperedAndForeignTokensFailClosed) {
  core::Prefilter pf = CompileMedline();
  std::string doc = MedlineDoc(4 << 10);
  auto idx = BuildEveryBoundary(pf, doc);
  ASSERT_TRUE(idx.ok());
  auto cur = Cursor::OpenAt(*idx, pf.tables(), doc, doc.size() / 2);
  ASSERT_TRUE(cur.ok());
  std::string token = cur->SaveToken();
  ASSERT_TRUE(Cursor::Restore(*idx, pf.tables(), doc, token).ok());

  for (size_t i = 0; i < token.size(); ++i) {
    std::string mutated = token;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x5a);
    EXPECT_FALSE(Cursor::Restore(*idx, pf.tables(), doc, mutated).ok())
        << "tampered token byte " << i << " restored";
  }
  for (size_t len = 0; len < token.size(); ++len) {
    EXPECT_FALSE(Cursor::Restore(*idx, pf.tables(), doc,
                                 std::string_view(token).substr(0, len))
                     .ok())
        << "truncated token of " << len << " bytes restored";
  }

  // A token minted over a different document cannot cross over.
  std::string other_doc = MedlineDoc(5 << 10);
  auto other_idx = BuildEveryBoundary(pf, other_doc);
  ASSERT_TRUE(other_idx.ok());
  auto other_cur =
      Cursor::OpenAt(*other_idx, pf.tables(), other_doc, 100);
  ASSERT_TRUE(other_cur.ok());
  EXPECT_FALSE(
      Cursor::Restore(*idx, pf.tables(), doc, other_cur->SaveToken()).ok());
}

TEST(BoundaryIndexTest, BoundarylessDocumentsStillServeCursors) {
  // A document whose root has no element children yields an entry-less
  // index; every OpenAt degenerates to a serial run from the start.
  auto dtd = dtd::Dtd::Parse(
      "<!DOCTYPE a [ <!ELEMENT a (#PCDATA)> ]>");
  ASSERT_TRUE(dtd.ok());
  auto paths = paths::ProjectionPath::ParseList("/a#");
  ASSERT_TRUE(paths.ok());
  auto pf = core::Prefilter::Compile(std::move(*dtd), std::move(*paths));
  ASSERT_TRUE(pf.ok());
  std::string doc = "<a>just text, no children</a>";
  auto serial = pf->RunOnBuffer(doc);
  ASSERT_TRUE(serial.ok());

  parallel::ThreadPool pool(2);
  BoundaryIndexOptions opts;
  opts.granularity_bytes = 1;
  auto idx = BoundaryIndex::Build(pf->tables(), doc, &pool, opts);
  ASSERT_TRUE(idx.ok()) << idx.status().ToString();
  EXPECT_TRUE(idx->entries().empty());

  auto cur = Cursor::OpenAt(*idx, pf->tables(), doc, doc.size() / 2);
  ASSERT_TRUE(cur.ok());
  EXPECT_EQ(cur->position(), 0u);
  StringSink sink;
  ASSERT_TRUE(cur->Drain(&sink).ok());
  EXPECT_EQ(sink.str(), *serial);
}

TEST(BoundaryIndexTest, BuildFailsOnDocumentsThatDoNotPrefilter) {
  core::Prefilter pf = CompileMedline();
  std::string doc = MedlineDoc(4 << 10);
  doc.resize(doc.size() / 2);  // truncated document: serial run fails too
  parallel::ThreadPool pool(2);
  BoundaryIndexOptions opts;
  opts.granularity_bytes = 256;
  auto idx = BoundaryIndex::Build(pf.tables(), doc, &pool, opts);
  EXPECT_FALSE(idx.ok());
}

TEST(BoundaryIndexTest, CoarseGranularityMatchesFineResumes) {
  // A coarse index is a subset of resume points; every coarse entry must
  // behave exactly like the corresponding fine entry.
  core::Prefilter pf = CompileMedline();
  std::string doc = MedlineDoc(16 << 10);
  auto serial = pf.RunOnBuffer(doc);
  ASSERT_TRUE(serial.ok());
  parallel::ThreadPool pool(3);
  BoundaryIndexOptions coarse_opts;
  coarse_opts.granularity_bytes = 2048;
  auto coarse = BoundaryIndex::Build(pf.tables(), doc, &pool, coarse_opts);
  ASSERT_TRUE(coarse.ok());
  auto fine = BuildEveryBoundary(pf, doc);
  ASSERT_TRUE(fine.ok());
  ASSERT_FALSE(coarse->entries().empty());
  EXPECT_LT(coarse->entries().size(), fine->entries().size());

  for (const IndexEntry& e : coarse->entries()) {
    int64_t j = fine->FindEntry(e.offset);
    ASSERT_GE(j, 0);
    const IndexEntry& f = fine->entries()[static_cast<size_t>(j)];
    EXPECT_EQ(f.offset, e.offset);
    EXPECT_EQ(f.out_offset, e.out_offset);
    EXPECT_EQ(f.checkpoint.state, e.checkpoint.state);
    EXPECT_EQ(f.checkpoint.cursor, e.checkpoint.cursor);
    auto cur = Cursor::OpenAt(*coarse, pf.tables(), doc, e.offset);
    ASSERT_TRUE(cur.ok());
    StringSink sink;
    ASSERT_TRUE(cur->Drain(&sink).ok());
    EXPECT_EQ(sink.str(),
              serial->substr(static_cast<size_t>(e.out_offset)));
  }
}

int64_t PeakRssKb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<int64_t>(ru.ru_maxrss);  // KiB on Linux
}

TEST(BoundaryIndexTest, GranularityOneBuildOnAPoolStaysSmall) {
  // Granularity 1 asks the boundary scan for one split per byte. A region-
  // parallel scan at that spacing would hold one ~2 KiB region summary per
  // document byte (~2 GiB here); the pool build must instead take the
  // serial scanner and match the one-thread build exactly.
  core::Prefilter pf = CompileMedline();
  std::string doc = MedlineDoc(1 << 20);
  BoundaryIndexOptions opts;
  opts.granularity_bytes = 1;
  parallel::ThreadPool one(1);
  auto ref = BoundaryIndex::Build(pf.tables(), doc, &one, opts);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  ASSERT_GT(ref->entries().size(), 100u);

  parallel::ThreadPool four(4);
  const int64_t before_kb = PeakRssKb();
  auto idx = BoundaryIndex::Build(pf.tables(), doc, &four, opts);
  const int64_t grown_kb = PeakRssKb() - before_kb;
  ASSERT_TRUE(idx.ok()) << idx.status().ToString();
  EXPECT_EQ(idx->Serialize(), ref->Serialize());
  EXPECT_LT(grown_kb, 256 << 10) << "peak RSS grew by " << grown_kb << " KiB";
}

TEST(BoundaryIndexTest, RecordOrdinalsMatchTokenizerTruth) {
  // With a granularity-1 index, entry i is the boundary of top-level
  // record i: ordinals must be exactly 0, 1, 2, ...; coarse indexes must
  // carry the same ordinal the fine index has at the same offset.
  core::Prefilter pf = CompileMedline();
  std::string doc = MedlineDoc(16 << 10);
  auto fine = BuildEveryBoundary(pf, doc);
  ASSERT_TRUE(fine.ok());
  for (size_t i = 0; i < fine->entries().size(); ++i) {
    EXPECT_EQ(fine->entries()[i].record_ordinal, i) << "entry " << i;
  }

  parallel::ThreadPool pool(3);
  BoundaryIndexOptions coarse_opts;
  coarse_opts.granularity_bytes = 2048;
  auto coarse = BoundaryIndex::Build(pf.tables(), doc, &pool, coarse_opts);
  ASSERT_TRUE(coarse.ok());
  ASSERT_FALSE(coarse->entries().empty());
  for (const IndexEntry& e : coarse->entries()) {
    int64_t j = fine->FindEntry(e.offset);
    ASSERT_GE(j, 0);
    EXPECT_EQ(e.record_ordinal,
              fine->entries()[static_cast<size_t>(j)].record_ordinal)
        << "offset " << e.offset;
  }
}

TEST(BoundaryIndexTest, FindRecordAndOpenAtRecordPaginateBySerialRecord) {
  core::Prefilter pf = CompileMedline();
  std::string doc = MedlineDoc(8 << 10);
  auto serial = pf.RunOnBuffer(doc);
  ASSERT_TRUE(serial.ok());
  auto idx = BuildEveryBoundary(pf, doc);
  ASSERT_TRUE(idx.ok());
  const size_t n = idx->entries().size();
  ASSERT_GE(n, 3u);

  // FindRecord mirrors FindEntry's semantics in record space.
  EXPECT_EQ(idx->FindRecord(0), 0);
  EXPECT_EQ(idx->FindRecord(1), 1);
  EXPECT_EQ(idx->FindRecord(n - 1), static_cast<int64_t>(n - 1));
  EXPECT_EQ(idx->FindRecord(n + 1000), static_cast<int64_t>(n - 1));

  // Opening at record k resumes exactly at boundary k and drains the
  // serial suffix; record_position() reports k.
  for (uint64_t k : {uint64_t{0}, uint64_t{1}, static_cast<uint64_t>(n / 2),
                     static_cast<uint64_t>(n - 1)}) {
    auto cur = Cursor::OpenAtRecord(*idx, pf.tables(), doc, k);
    ASSERT_TRUE(cur.ok()) << cur.status().ToString();
    const IndexEntry& e = idx->entries()[static_cast<size_t>(k)];
    EXPECT_EQ(cur->position(), e.offset);
    EXPECT_EQ(cur->record_position(), k);
    StringSink sink;
    ASSERT_TRUE(cur->Drain(&sink).ok());
    EXPECT_EQ(sink.str(), serial->substr(static_cast<size_t>(e.out_offset)))
        << "record seek " << k;
  }

  // A coarse index lands on the nearest preceding indexed boundary.
  parallel::ThreadPool pool(2);
  BoundaryIndexOptions coarse_opts;
  coarse_opts.granularity_bytes = 2048;
  auto coarse = BoundaryIndex::Build(pf.tables(), doc, &pool, coarse_opts);
  ASSERT_TRUE(coarse.ok());
  ASSERT_FALSE(coarse->entries().empty());
  uint64_t target = coarse->entries().back().record_ordinal + 1;
  auto cur = Cursor::OpenAtRecord(*coarse, pf.tables(), doc, target);
  ASSERT_TRUE(cur.ok());
  EXPECT_EQ(cur->position(), coarse->entries().back().offset);
  EXPECT_EQ(cur->record_position(), coarse->entries().back().record_ordinal);
}

TEST(BoundaryIndexTest, StatsPrefixCompletesResumedRunsToSerialTotals) {
  // For the chunk-split-invariant counters (matches, false matches), the
  // stored prefix plus a resumed run's own stats must equal the full
  // serial run's totals -- that is what makes seek-point stats honest.
  core::Prefilter pf = CompileMedline();
  std::string doc = MedlineDoc(8 << 10);
  core::RunStats serial_stats;
  {
    CountingSink discard;
    core::PrefilterSession s(pf.tables(), &discard, &serial_stats, {});
    ASSERT_TRUE(s.Resume(doc).ok());
    if (!s.finished()) {
      ASSERT_TRUE(s.Finish().ok());
    }
  }
  auto idx = BuildEveryBoundary(pf, doc);
  ASSERT_TRUE(idx.ok());
  ASSERT_GE(idx->entries().size(), 2u);

  for (size_t i : {size_t{0}, idx->entries().size() / 2,
                   idx->entries().size() - 1}) {
    auto cur = Cursor::OpenAt(*idx, pf.tables(), doc,
                              idx->entries()[i].offset);
    ASSERT_TRUE(cur.ok());
    StatsPrefix prefix = cur->stats_prefix();
    // Re-run the suffix serially to get the resumed portion's stats.
    core::RunStats suffix_stats;
    {
      CountingSink discard;
      const core::SessionCheckpoint ckpt = idx->entries()[i].checkpoint;
      core::PrefilterSession s(pf.tables(), &discard, &suffix_stats, {},
                               &ckpt);
      ASSERT_TRUE(s.Resume(doc.substr(
                              static_cast<size_t>(ckpt.feed_begin())))
                      .ok());
      if (!s.finished()) {
      ASSERT_TRUE(s.Finish().ok());
    }
    }
    core::RunStats total = suffix_stats;
    prefix.AccumulateInto(&total);
    EXPECT_EQ(total.matches, serial_stats.matches) << "entry " << i;
    EXPECT_EQ(total.false_matches, serial_stats.false_matches)
        << "entry " << i;
  }
}

TEST(BoundaryIndexTest, VersionOneFilesFailClosedAsUnsupported) {
  core::Prefilter pf = CompileMedline();
  std::string doc = MedlineDoc(2 << 10);
  auto idx = BuildEveryBoundary(pf, doc);
  ASSERT_TRUE(idx.ok());
  std::string bytes = idx->Serialize();
  // Rewrite the version field to 1 and re-seal the trailing hash so ONLY
  // the version check can reject it.
  bytes[8] = 1;
  std::string body = bytes.substr(0, bytes.size() - 8);
  std::string resealed = body;
  uint64_t h = Hash64(body);
  for (int i = 0; i < 8; ++i) {
    resealed.push_back(static_cast<char>((h >> (8 * i)) & 0xff));
  }
  auto r = BoundaryIndex::Load(resealed);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnsupported)
      << r.status().ToString();
}

/// Chunked-build differential helper: entries must be identical to the
/// in-memory build's in every durable field (offsets, ordinals,
/// checkpoints, exact match counters); only the approximate search-effort
/// counters may differ, because the two builders suspend the engine with
/// different histories.
void ExpectChunkedMatchesInMemory(const core::Prefilter& pf,
                                  const std::string& doc,
                                  uint64_t granularity, uint64_t chunk) {
  parallel::ThreadPool pool(3);
  BoundaryIndexOptions opts;
  opts.granularity_bytes = granularity;
  auto mem = BoundaryIndex::Build(pf.tables(), doc, &pool, opts);
  ASSERT_TRUE(mem.ok()) << mem.status().ToString();

  MemorySource src(doc);
  BoundaryIndexOptions copts = opts;
  copts.chunk_bytes = chunk;
  auto chunked = BoundaryIndex::Build(pf.tables(), src, nullptr, copts);
  ASSERT_TRUE(chunked.ok()) << chunked.status().ToString();

  EXPECT_EQ(chunked->doc_size(), mem->doc_size());
  EXPECT_EQ(chunked->doc_digest(), mem->doc_digest());
  EXPECT_EQ(chunked->tables_fingerprint(), mem->tables_fingerprint());
  ASSERT_EQ(chunked->entries().size(), mem->entries().size());
  for (size_t i = 0; i < mem->entries().size(); ++i) {
    const IndexEntry& a = mem->entries()[i];
    const IndexEntry& b = chunked->entries()[i];
    EXPECT_EQ(a.offset, b.offset) << "entry " << i;
    EXPECT_EQ(a.out_offset, b.out_offset) << "entry " << i;
    EXPECT_EQ(a.record_ordinal, b.record_ordinal) << "entry " << i;
    EXPECT_EQ(a.checkpoint.state, b.checkpoint.state) << "entry " << i;
    EXPECT_EQ(a.checkpoint.cursor, b.checkpoint.cursor) << "entry " << i;
    EXPECT_EQ(a.checkpoint.nesting_depth, b.checkpoint.nesting_depth);
    EXPECT_EQ(a.checkpoint.copy_depth, b.checkpoint.copy_depth);
    EXPECT_EQ(a.checkpoint.copy_flushed, b.checkpoint.copy_flushed);
    EXPECT_EQ(a.checkpoint.prolog_done, b.checkpoint.prolog_done);
    EXPECT_EQ(a.checkpoint.jump_pending, b.checkpoint.jump_pending);
    EXPECT_EQ(a.stats.matches, b.stats.matches) << "entry " << i;
    EXPECT_EQ(a.stats.false_matches, b.stats.false_matches) << "entry " << i;
  }
}

TEST(BoundaryIndexTest, ChunkedBuildMatchesInMemoryOnEveryDurableField) {
  core::Prefilter xm = CompileXmark();
  ExpectChunkedMatchesInMemory(xm, XmarkDoc(16 << 10), /*granularity=*/1,
                               /*chunk=*/4 << 10);
  core::Prefilter ml = CompileMedline();
  ExpectChunkedMatchesInMemory(ml, MedlineDoc(16 << 10), /*granularity=*/1,
                               /*chunk=*/4 << 10);
}

TEST(BoundaryIndexTest, ChunkedBuildsAreByteIdenticalAcrossChunkSizes) {
  // The chunked path is deterministic in itself: as long as no
  // inter-entry span exceeds the chunk, the chunk size cannot leak into
  // the file -- the engine suspends at exactly the same boundaries.
  core::Prefilter pf = CompileMedline();
  std::string doc = MedlineDoc(16 << 10);
  MemorySource src(doc);
  BoundaryIndexOptions opts;
  opts.granularity_bytes = 1;
  opts.chunk_bytes = 4 << 10;
  auto a = BoundaryIndex::Build(pf.tables(), src, nullptr, opts);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  opts.chunk_bytes = 8 << 10;
  auto b = BoundaryIndex::Build(pf.tables(), src, nullptr, opts);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->Serialize(), b->Serialize());
}

TEST(BoundaryIndexTest, ChunkedBuildSurvivesSpansLargerThanTheChunk) {
  // Coarse granularity with a tiny chunk forces mid-span suspensions:
  // everything except the approximate search counters must still agree,
  // and cursors over the chunked index must serve identical bytes.
  core::Prefilter pf = CompileMedline();
  std::string doc = MedlineDoc(16 << 10);
  ExpectChunkedMatchesInMemory(pf, doc, /*granularity=*/4096,
                               /*chunk=*/256);

  MemorySource src(doc);
  BoundaryIndexOptions opts;
  opts.granularity_bytes = 4096;
  opts.chunk_bytes = 256;
  auto idx = BoundaryIndex::Build(pf.tables(), src, nullptr, opts);
  ASSERT_TRUE(idx.ok());
  auto serial = pf.RunOnBuffer(doc);
  ASSERT_TRUE(serial.ok());
  for (const IndexEntry& e : idx->entries()) {
    auto cur = Cursor::OpenAt(*idx, pf.tables(), doc, e.offset);
    ASSERT_TRUE(cur.ok()) << cur.status().ToString();
    StringSink sink;
    ASSERT_TRUE(cur->Drain(&sink).ok());
    EXPECT_EQ(sink.str(), serial->substr(static_cast<size_t>(e.out_offset)))
        << "chunked-index resume at offset " << e.offset;
  }
}

TEST(BoundaryIndexTest, ChunkedBuildFromFileSourceNeverMapsTheDocument) {
  core::Prefilter pf = CompileMedline();
  std::string doc = MedlineDoc(16 << 10);
  std::string path = "/tmp/smpx_chunked_index_input.xml";
  ASSERT_TRUE(WriteStringToFile(path, doc).ok());
  auto src = FileSource::Open(path);
  ASSERT_TRUE(src.ok()) << src.status().ToString();
  ASSERT_EQ((*src)->Contiguous().data(), nullptr);

  // The pread-backed build must be byte-identical to the same chunked
  // build over in-memory bytes, and its digest must satisfy Matches.
  MemorySource mem_src(doc);
  BoundaryIndexOptions opts;
  opts.granularity_bytes = 1;
  opts.chunk_bytes = 1 << 10;
  auto mem = BoundaryIndex::Build(pf.tables(), mem_src, nullptr, opts);
  ASSERT_TRUE(mem.ok());
  auto chunked = BoundaryIndex::Build(pf.tables(), **src, nullptr, opts);
  ASSERT_TRUE(chunked.ok()) << chunked.status().ToString();
  EXPECT_EQ(chunked->Serialize(), mem->Serialize());
  ASSERT_TRUE(chunked->Matches(doc, pf.tables()).ok());
  std::remove(path.c_str());
}

TEST(BoundaryIndexTest, ChunkedBuildFailsOnDocumentsThatDoNotPrefilter) {
  core::Prefilter pf = CompileMedline();
  std::string doc = MedlineDoc(4 << 10);
  doc.resize(doc.size() / 2);
  MemorySource src(doc);
  BoundaryIndexOptions opts;
  opts.granularity_bytes = 256;
  opts.chunk_bytes = 512;
  EXPECT_FALSE(BoundaryIndex::Build(pf.tables(), src, nullptr, opts).ok());
}

}  // namespace
}  // namespace smpx::index
