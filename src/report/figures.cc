#include "figures.hh"

#include <cstdarg>
#include <cstdio>

#include "analysis/correlation.hh"
#include "analysis/criticality.hh"
#include "analysis/evolution.hh"
#include "analysis/frequency.hh"
#include "analysis/heredity.hh"
#include "analysis/msr.hh"
#include "analysis/stats.hh"
#include "analysis/timeline.hh"
#include "analysis/vendorcmp.hh"
#include "analysis/workfix.hh"
#include "corpus/calibration.hh"
#include "document/format.hh"
#include "guidance/guidance.hh"
#include "report/chart.hh"
#include "report/svg.hh"
#include "report/table.hh"
#include "taxonomy/taxonomy.hh"
#include "util/strings.hh"

namespace rememberr {

namespace {

/** printf onto the end of a figure's rows. */
[[gnu::format(printf, 2, 3)]] void
appendf(std::string &rows, const char *format, ...)
{
    va_list args;
    va_start(args, format);
    va_list sizing;
    va_copy(sizing, args);
    int size = std::vsnprintf(nullptr, 0, format, sizing);
    va_end(sizing);
    if (size > 0) {
        std::size_t at = rows.size();
        rows.resize(at + static_cast<std::size_t>(size) + 1);
        std::vsnprintf(rows.data() + at,
                       static_cast<std::size_t>(size) + 1, format, args);
        rows.resize(at + static_cast<std::size_t>(size));
    }
    va_end(args);
}

/** Category counts as bars labelled "total (Intel n, AMD m)". */
std::vector<Bar>
frequencyBars(const std::vector<CategoryFrequency> &frequencies)
{
    std::vector<Bar> bars;
    for (const CategoryFrequency &freq : frequencies) {
        bars.push_back(Bar{
            freq.code, static_cast<double>(freq.total()),
            std::to_string(freq.total()) + " (Intel " +
                std::to_string(freq.intelCount) + ", AMD " +
                std::to_string(freq.amdCount) + ")"});
    }
    return bars;
}

/** Vendor shares side by side, for the text chart. */
std::vector<PairedBar>
pairedShareBars(const std::vector<VendorShareRow> &rows)
{
    std::vector<PairedBar> bars;
    for (const VendorShareRow &row : rows) {
        bars.push_back(
            PairedBar{row.code, row.intelShare, row.amdShare});
    }
    return bars;
}

/** Vendor shares in percent, one SVG bar per vendor and row. */
std::vector<Bar>
svgShareBars(const std::vector<VendorShareRow> &rows)
{
    std::vector<Bar> svgBars;
    for (const VendorShareRow &row : rows) {
        svgBars.push_back(
            Bar{row.code + " (Intel)", row.intelShare * 100, ""});
        svgBars.push_back(
            Bar{row.code + " (AMD)", row.amdShare * 100, ""});
    }
    return svgBars;
}

/** Figure 2: cumulative disclosure dates per document. */
FigureOutput
renderTimeline(const Database &db, const PipelineResult *)
{
    FigureOutput out;
    auto series = disclosureTimelines(db);

    std::vector<CumulativeSeries> intel, amd;
    for (std::size_t d = 0; d < series.size(); ++d) {
        if (d < firstAmdDocIndex)
            intel.push_back(series[d]);
        else
            amd.push_back(series[d]);
    }

    appendf(out.rows, "Figure 2: cumulative disclosed errata per "
                      "document (duplicates counted individually)\n");
    appendf(out.rows, "(paper shape: concave growth per document [O2]; "
                      "Intel updates much more often than AMD;\n"
                      " Desktop/Mobile pairs track each other)\n\n");

    appendf(out.rows, "Intel Core (cumulative count at each year "
                      "end):\n%s\n",
                      renderSeriesByYear(intel, 2008, 2022).c_str());
    appendf(out.rows, "AMD (cumulative count at each year end):\n%s\n",
                      renderSeriesByYear(amd, 2008, 2022).c_str());

    // O2: concavity per mature document.
    int mature = 0, concave = 0;
    for (const CumulativeSeries &s : series) {
        if (s.points.size() < 5)
            continue;
        ++mature;
        if (concavityScore(s) > 0.6)
            ++concave;
    }
    appendf(out.rows, "O2 check: %d of %d mature documents show concave "
                      "growth (paper: 'usually concave')\n",
                      concave, mature);

    SvgOptions options;
    options.title =
        "Figure 2 (top): Intel Core cumulative disclosures";
    out.svgs.push_back(svgLineChart(intel, options));
    options.title = "Figure 2 (bottom): AMD cumulative disclosures";
    out.svgs.push_back(svgLineChart(amd, options));
    return out;
}

/** Figure 3: common bugs across Intel generations (heredity). */
FigureOutput
renderHeredity(const Database &db, const PipelineResult *)
{
    FigureOutput out;
    HeredityMatrix matrix = heredityMatrix(db, Vendor::Intel);

    appendf(out.rows, "Figure 3: identical errata between pairs of Intel "
                      "documents\n");
    appendf(out.rows, "(paper shape: Desktop/Mobile pairs share most "
                      "bugs; generations 6-10 form a salient\n"
                      " block; long horizontal non-zero lines are "
                      "long-lasting bugs)\n\n");
    appendf(out.rows, "%s\n",
                      renderHeatmap(matrix.labels, matrix.labels,
                                    matrix.counts)
                          .c_str());

    // The paper's named structures.
    auto shared6to10 = entriesSharedByAll(db, {10, 11, 12, 13});
    appendf(out.rows, "bugs shared by ALL generations 6-10: %zu "
                      "(paper: 104)\n",
                      shared6to10.size());
    auto shared1to10 = entriesSharedByAll(
        db, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13});
    appendf(out.rows, "bugs present from Core 1 through Core 10: %zu "
                      "(paper: 6)\n",
                      shared1to10.size());
    appendf(out.rows, "longest generation span of a single erratum: %zu "
                      "generations (paper: 11, Core 2 -> Core 12)\n",
                      longestGenerationSpan(db, Vendor::Intel));

    out.svgs.push_back(
        svgHeatmap(matrix.labels, matrix.labels, matrix.counts,
                   {.title = "Figure 3: bug heredity"}));
    return out;
}

/** The Intel Core 6-10 documents (Figure 4). */
const std::vector<int> sharedDocs{10, 11, 12, 13};

/** Figure 4: disclosures of the bugs shared by Core 6 to 10. */
FigureOutput
renderShared(const Database &db, const PipelineResult *)
{
    FigureOutput out;
    auto series = sharedBugDisclosures(db, sharedDocs);
    auto shared = entriesSharedByAll(db, sharedDocs);

    appendf(out.rows, "Figure 4: disclosure dates of the %zu bugs shared "
                      "by all Intel Core generations 6-10 (paper: 104)\n",
                      shared.size());
    appendf(out.rows, "(paper shape: most shared errors were known "
                      "BEFORE the subsequent generation's release [O4])"
                      "\n\n");
    appendf(out.rows, "%s\n",
                      renderSeriesByYear(series, 2015, 2022).c_str());

    // O4: per consecutive generation pair, how many of the shared
    // bugs were disclosed before the next release?
    for (std::size_t i = 0; i + 1 < sharedDocs.size(); ++i) {
        const ErrataDocument &later =
            db.documents()[static_cast<std::size_t>(
                sharedDocs[i + 1])];
        std::size_t before = 0;
        for (const DbEntry *entry : shared) {
            for (const Occurrence &occurrence :
                 entry->occurrences) {
                if (occurrence.docIndex == sharedDocs[i] &&
                    occurrence.disclosed <
                        later.design.releaseDate) {
                    ++before;
                    break;
                }
            }
        }
        const ErrataDocument &earlier =
            db.documents()[static_cast<std::size_t>(
                sharedDocs[i])];
        appendf(out.rows, "  known on %s before %s released: %zu / %zu\n",
                          earlier.design.name.c_str(),
                          later.design.name.c_str(), before,
                          shared.size());
    }
    appendf(out.rows, "O4 overall (shared errata known before the "
                      "subsequent design's release): %s (paper: 'most')\n",
                      strings::formatPercent(
                          knownBeforeNextReleaseFraction(db,
                                                         Vendor::Intel))
                          .c_str());

    out.svgs.push_back(
        svgLineChart(series,
                     {.title = "Figure 4: shared-bug "
                               "disclosures, gens 6-10"}));
    return out;
}

/** Figure 5: forward- and backward-latent Intel errata. */
FigureOutput
renderLatent(const Database &db, const PipelineResult *)
{
    FigureOutput out;
    LatentSeries latent = latentErrata(db, Vendor::Intel);

    appendf(out.rows, "Figure 5: forward-latent and backward-latent "
                      "errata among Intel Core generations\n");
    appendf(out.rows, "(paper shape: forward-latent always increasing, "
                      "accelerating since 2015; a salient\n"
                      " portion of backward-latent errata around "
                      "2015)\n\n");
    appendf(out.rows, "%s\n",
                      renderSeriesByYear({latent.forwardLatent,
                                          latent.backwardLatent},
                                         2009, 2022)
                          .c_str());
    appendf(out.rows, "forward-latent errata:  %zu\n",
                      latent.forwardCount);
    appendf(out.rows, "backward-latent errata: %zu\n",
                      latent.backwardCount);

    // The 2014-2016 backward bulge.
    std::size_t before =
        latent.backwardLatent.countAt(Date(2013, 12, 31));
    std::size_t after =
        latent.backwardLatent.countAt(Date(2016, 12, 31));
    appendf(out.rows, "backward-latent events dated 2014-2016: %zu of "
                      "%zu (paper: salient bulge around 2015)\n",
                      after - before, latent.backwardCount);

    out.svgs.push_back(
        svgLineChart({latent.forwardLatent,
                      latent.backwardLatent},
                     {.title = "Figure 5: latent errata"}));
    return out;
}

/** Figure 6: suggested workarounds of errata by category. */
FigureOutput
renderWorkarounds(const Database &db, const PipelineResult *)
{
    FigureOutput out;
    WorkaroundBreakdown breakdown = workaroundBreakdown(db);

    appendf(out.rows, "Figure 6: suggested workarounds by category "
                      "(unique errata)\n");
    appendf(out.rows, "(paper: no workaround at all for 35.9%% of Intel "
                      "and 28.9%% of AMD unique errata [O5];\n"
                      " documentation fixes below 0.5%%)\n\n");

    static const WorkaroundClass order[] = {
        WorkaroundClass::None,       WorkaroundClass::Bios,
        WorkaroundClass::Software,   WorkaroundClass::Peripherals,
        WorkaroundClass::Absent,     WorkaroundClass::DocumentationFix,
    };
    std::vector<PairedBar> bars;
    std::vector<Bar> svgBars;
    for (WorkaroundClass cls : order) {
        double intelShare =
            static_cast<double>(breakdown.intel[cls]) /
            static_cast<double>(breakdown.intelTotal);
        double amdShare =
            static_cast<double>(breakdown.amd[cls]) /
            static_cast<double>(breakdown.amdTotal);
        bars.push_back(
            PairedBar{std::string(workaroundClassName(cls)),
                      intelShare, amdShare});
        svgBars.push_back(
            Bar{std::string(workaroundClassName(cls)),
                intelShare * 100.0, ""});
    }
    appendf(out.rows, "%s\n",
                      renderPairedBarChart(bars, "Intel", "AMD").c_str());
    appendf(out.rows, "no-workaround fraction: Intel %s (paper: 35.9%%), "
                      "AMD %s (paper: 28.9%%)\n",
                      strings::formatPercent(
                          breakdown.noneFraction(Vendor::Intel))
                          .c_str(),
                      strings::formatPercent(
                          breakdown.noneFraction(Vendor::Amd))
                          .c_str());

    out.svgs.push_back(
        svgBarChart(svgBars,
                    {.title = "Figure 6: workarounds "
                              "(Intel %, by category)"}));
    return out;
}

/** Figure 7: proportion of fixed vs unfixed bugs per document. */
FigureOutput
renderFixes(const Database &db, const PipelineResult *)
{
    FigureOutput out;
    auto rows = fixBreakdown(db);

    appendf(out.rows, "Figure 7: fixed vs unfixed bugs per document\n");
    appendf(out.rows, "(paper shape: the vast majority of bugs are never "
                      "fixed [O6]; a weak increasing fixing\n"
                      " trend in the latest Intel generations)\n\n");

    AsciiTable table;
    table.setColumns({"document", "fixed", "planned", "unfixed",
                      "fixed share"},
                     {Align::Left, Align::Right, Align::Right,
                      Align::Right, Align::Right});
    for (const FixRow &row : rows) {
        std::size_t total = row.fixed + row.planned + row.unfixed;
        if (row.docIndex == static_cast<int>(firstAmdDocIndex))
            table.addSeparator();
        table.addRow({
            row.label,
            std::to_string(row.fixed),
            std::to_string(row.planned),
            std::to_string(row.unfixed),
            strings::formatPercent(
                total == 0 ? 0.0
                           : static_cast<double>(row.fixed) /
                                 static_cast<double>(total)),
        });
    }
    appendf(out.rows, "%s\n", table.toString().c_str());
    appendf(out.rows, "never-fixed fraction over unique errata: %s "
                      "(paper: 'the vast majority')\n",
                      strings::formatPercent(neverFixedFraction(db))
                          .c_str());

    std::vector<Bar> bars;
    for (const FixRow &row : rows) {
        std::size_t total = row.fixed + row.planned + row.unfixed;
        bars.push_back(
            Bar{row.label,
                total == 0 ? 0.0
                           : 100.0 * static_cast<double>(row.fixed) /
                                 static_cast<double>(total),
                ""});
    }
    out.svgs.push_back(
        svgBarChart(bars, {.title = "Figure 7: fixed share "
                                    "per document (%)"}));
    return out;
}

/** Figure 8: number of errata per classification discussion step. */
FigureOutput
renderSteps(const Database &, const PipelineResult *pipeline)
{
    FigureOutput out;
    const FourEyesResult &annotations = pipeline->annotations;

    appendf(out.rows, "Figure 8: cumulative errata per classification "
                      "discussion step\n");
    appendf(out.rows, "(paper shape: seven successive steps, Intel first "
                      "then AMD, reaching all 1,128 unique\n"
                      " errata)\n\n");

    AsciiTable table;
    table.setColumns({"step", "errata", "cumulative",
                      "manual decisions", "mismatches"},
                     {Align::Right, Align::Right, Align::Right,
                      Align::Right, Align::Right});
    std::vector<Bar> bars;
    for (const StepStats &step : annotations.steps) {
        table.addRow({
            std::to_string(step.step),
            std::to_string(step.erratumCount),
            std::to_string(step.cumulativeErrata),
            std::to_string(step.manualDecisions),
            std::to_string(step.mismatches),
        });
        bars.push_back(
            Bar{"step " + std::to_string(step.step),
                static_cast<double>(step.cumulativeErrata),
                std::to_string(step.cumulativeErrata)});
    }
    appendf(out.rows, "%s\n", table.toString().c_str());
    appendf(out.rows, "%s", renderBarChart(bars).c_str());
    appendf(out.rows, "\ntotal unique errata classified: %zu "
                      "(paper: 1,128)\n",
                      annotations.steps.back().cumulativeErrata);

    out.svgs.push_back(
        svgBarChart(bars, {.title = "Figure 8: errata per "
                                    "discussion step"}));
    return out;
}

/** Figure 9: inter-annotator agreement per classification step. */
FigureOutput
renderAgreement(const Database &, const PipelineResult *pipeline)
{
    FigureOutput out;
    const FourEyesResult &annotations = pipeline->annotations;

    appendf(out.rows, "Figure 9: percentage of errata-category pairs "
                      "classified identically by both humans\n");
    appendf(out.rows, "(paper shape: generally above 80%%, improving "
                      "over time, with a dip when the AMD corpus\n"
                      " starts at step 6)\n\n");

    std::vector<Bar> bars;
    for (const StepStats &step : annotations.steps) {
        bars.push_back(
            Bar{"step " + std::to_string(step.step),
                step.agreement * 100.0,
                strings::formatPercent(step.agreement)});
    }
    appendf(out.rows, "%s\n", renderBarChart(bars).c_str());

    appendf(out.rows, "per-annotator workload: %zu manual decisions "
                      "(paper: ~2,064 out of 67,680 naive)\n",
                      annotations.manualDecisionsPerAnnotator);
    appendf(out.rows, "final label accuracy after discussion: %s\n",
                      strings::formatPercent(annotations.labelAccuracy,
                                             2)
                          .c_str());

    out.svgs.push_back(
        svgBarChart(bars, {.title = "Figure 9: agreement per "
                                    "step (%)"}));
    return out;
}

/** Figure 10: most frequent triggers of all errata. */
FigureOutput
renderTriggers(const Database &db, const PipelineResult *)
{
    FigureOutput out;
    auto frequencies =
        categoryFrequencies(db, Axis::Trigger, 12);

    appendf(out.rows, "Figure 10: most frequent triggers of all errata "
                      "(unique, both vendors)\n");
    appendf(out.rows, "(paper shape [O7]: trg_CFG_wrg, trg_POW_tht and "
                      "trg_POW_pwc on top — MSR configuration\n"
                      " combined with throttling, power transitions or "
                      "peripheral inputs)\n\n");

    std::vector<Bar> bars = frequencyBars(frequencies);
    appendf(out.rows, "%s\n", renderBarChart(bars).c_str());
    appendf(out.rows, "paper's top 3: trg_CFG_wrg, trg_POW_tht, "
                      "trg_POW_pwc — measured top 3: %s, %s, %s\n",
                      frequencies[0].code.c_str(),
                      frequencies[1].code.c_str(),
                      frequencies[2].code.c_str());

    out.svgs.push_back(
        svgBarChart(bars, {.title = "Figure 10: most "
                                    "frequent triggers"}));
    return out;
}

/** Figure 11: number of errata by the number of triggers. */
FigureOutput
renderTriggerCount(const Database &db, const PipelineResult *)
{
    FigureOutput out;
    TriggerCountHistogram histogram = triggerCountHistogram(db);
    HeadlineStats stats = headlineStats(db);

    appendf(out.rows, "Figure 11: number of errata by number of "
                      "triggers\n");
    appendf(out.rows, "(paper: 14.4%% specify no clear trigger and are "
                      "excluded; of the rest, 49%% require at\n"
                      " least two combined triggers)\n\n");

    std::vector<Bar> bars;
    for (std::size_t k = 0; k < histogram.intelCounts.size();
         ++k) {
        std::size_t intel = histogram.intelCounts[k];
        std::size_t amd = k < histogram.amdCounts.size()
                              ? histogram.amdCounts[k]
                              : 0;
        bars.push_back(
            Bar{std::to_string(k + 1) + " trigger(s)",
                static_cast<double>(intel + amd),
                std::to_string(intel + amd) + " (Intel " +
                    std::to_string(intel) + ", AMD " +
                    std::to_string(amd) + ")"});
    }
    appendf(out.rows, "%s\n", renderBarChart(bars).c_str());
    appendf(out.rows, "no clear trigger: %s of unique errata "
                      "(paper: 14.4%%)\n",
                      strings::formatPercent(stats.noTriggerFraction)
                          .c_str());
    appendf(out.rows, ">= 2 combined triggers: %s of triggered errata "
                      "(paper: 49%%)\n",
                      strings::formatPercent(stats.multiTriggerFraction)
                          .c_str());
    appendf(out.rows, "complex set of conditions: Intel %s (paper: "
                      "8.7%%), AMD %s (paper: 20.8%%)\n",
                      strings::formatPercent(stats.complexIntel).c_str(),
                      strings::formatPercent(stats.complexAmd).c_str());

    out.svgs.push_back(
        svgBarChart(bars, {.title = "Figure 11: errata by "
                                    "trigger count"}));
    return out;
}

/** Figure 12: cross-correlation between abstract triggers. */
FigureOutput
renderCorrelation(const Database &db, const PipelineResult *)
{
    FigureOutput out;
    TriggerCorrelation matrix = triggerCorrelation(db);

    appendf(out.rows, "Figure 12: errata requiring at least each pair of "
                      "abstract triggers\n");
    appendf(out.rows, "(paper shape [O8]: some triggers correlate "
                      "strongly — debug features with VM\n"
                      " transitions, DDR/PCIe with power-level changes — "
                      "while most pairs never interact)\n\n");
    appendf(out.rows, "%s\n",
                      renderHeatmap(matrix.codes, matrix.codes,
                                    matrix.counts)
                          .c_str());

    const Taxonomy &taxonomy = Taxonomy::instance();
    appendf(out.rows, "strongest trigger pairs:\n");
    for (const auto &pair : matrix.topPairs(8)) {
        appendf(out.rows, "  %-14s + %-14s : %zu errata\n",
                          taxonomy.categoryById(pair.a).code.c_str(),
                          taxonomy.categoryById(pair.b).code.c_str(),
                          pair.count);
    }
    appendf(out.rows, "\nnon-interacting trigger pairs: %s of all pairs "
                      "(paper: 'most do not interact')\n",
                      strings::formatPercent(
                          nonInteractingPairFraction(matrix))
                          .c_str());

    out.svgs.push_back(
        svgHeatmap(matrix.codes, matrix.codes, matrix.counts,
                   {.title = "Figure 12: trigger "
                             "cross-correlation"}));
    return out;
}

/** Figure 13: trigger classes over Intel Core generations. */
FigureOutput
renderEvolution(const Database &db, const PipelineResult *)
{
    FigureOutput out;
    ClassEvolution evolution = classEvolution(db, Vendor::Intel);

    appendf(out.rows, "Figure 13: trigger classes over Intel Core "
                      "generations (share of generation's triggers)\n");
    appendf(out.rows, "(paper shape: Trg_MBR absent in the two latest "
                      "generations; Trg_FEA and external\n"
                      " communication dominate; Trg_PRV gains in the "
                      "last generation; all classes needed\n"
                      " everywhere else [O9])\n\n");

    AsciiTable table;
    std::vector<std::string> headers{"generation"};
    for (const std::string &code : evolution.classCodes)
        headers.push_back(code.substr(4)); // drop "Trg_"
    std::vector<Align> aligns(headers.size(), Align::Right);
    aligns[0] = Align::Left;
    table.setColumns(headers, aligns);

    std::vector<std::string> labels;
    std::vector<std::vector<std::size_t>> cells;
    for (const GenerationClassProfile &profile :
         evolution.generations) {
        labels.push_back(profile.label);
        cells.push_back(profile.classCounts);
        std::vector<std::string> row{profile.label};
        for (std::size_t c = 0; c < profile.classCounts.size();
             ++c) {
            double share =
                profile.totalTriggers == 0
                    ? 0.0
                    : static_cast<double>(profile.classCounts[c]) /
                          static_cast<double>(
                              profile.totalTriggers);
            row.push_back(profile.classCounts[c] == 0
                              ? "-"
                              : strings::formatPercent(share, 0));
        }
        table.addRow(std::move(row));
    }
    appendf(out.rows, "%s\n", table.toString().c_str());

    auto covered = generationsCoveringAllClasses(evolution);
    appendf(out.rows, "generations where every trigger class appears: ");
    for (int generation : covered)
        appendf(out.rows, "%d ", generation);
    appendf(out.rows, "(paper: all except the latest two)\n");

    out.svgs.push_back(
        svgHeatmap(labels, evolution.classCodes, cells,
                   {.title = "Figure 13: trigger classes per "
                             "generation"}));
    return out;
}

/** Figure 14: trigger class shares, Intel vs AMD. */
FigureOutput
renderVendorClasses(const Database &db, const PipelineResult *)
{
    FigureOutput out;
    auto rows = triggerClassShares(db);

    appendf(out.rows, "Figure 14: relative representation of trigger "
                      "classes, Intel vs AMD\n");
    appendf(out.rows, "(paper shape [O10]: the distributions are highly "
                      "similar; only the external-stimuli\n"
                      " and specific-features classes differ "
                      "significantly)\n\n");

    appendf(out.rows, "%s\n",
            renderPairedBarChart(pairedShareBars(rows), "Intel", "AMD")
                .c_str());
    appendf(out.rows, "total variation distance between the vendors' "
                      "class distributions: %s (small = similar)\n",
                      strings::formatPercent(classShareDistance(rows))
                          .c_str());

    out.svgs.push_back(
        svgBarChart(svgShareBars(rows), {.title = "Figure 14: trigger "
                                                  "class shares (%)"}));
    return out;
}

/**
 * Figures 15 and 16: the category shares within one trigger class,
 * Intel vs AMD, under the figure's header rows and SVG title.
 */
FigureOutput
renderClassShares(const Database &db, const char *classCode,
                  const char *header, const char *title)
{
    FigureOutput out;
    auto rows = triggerCategorySharesInClass(db, classCode);
    out.rows = header;
    out.rows += renderPairedBarChart(pairedShareBars(rows), "Intel", "AMD");
    out.svgs.push_back(svgBarChart(svgShareBars(rows), {.title = title}));
    return out;
}

/** Figure 15: external-stimulus trigger shares, Intel vs AMD. */
FigureOutput
renderExternal(const Database &db, const PipelineResult *)
{
    return renderClassShares(
        db, "Trg_EXT",
        "Figure 15: external-stimulus triggers, Intel vs "
        "AMD (share within Trg_EXT)\n"
        "(paper shape: Intel leans to PCIe/USB, AMD to "
        "HyperTransport/IOMMU/DRAM; some\n"
        " peripherals live in Intel's external chipset "
        "whose errata are out of scope)\n\n",
        "Figure 15: Trg_EXT triggers (%)");
}

/** Figure 16: feature trigger shares, Intel vs AMD. */
FigureOutput
renderFeatures(const Database &db, const PipelineResult *)
{
    return renderClassShares(
        db, "Trg_FEA",
        "Figure 16: feature triggers, Intel vs AMD (share "
        "within Trg_FEA)\n"
        "(paper shape: custom features and tracing "
        "features clearly over-represented at Intel)\n\n",
        "Figure 16: Trg_FEA triggers (%)");
}

/** Figure 17: most frequent contexts of all errata. */
FigureOutput
renderContexts(const Database &db, const PipelineResult *)
{
    FigureOutput out;
    auto frequencies = categoryFrequencies(db, Axis::Context);

    appendf(out.rows, "Figure 17: most frequent contexts of all errata\n");
    appendf(out.rows, "(paper shape [O11]: running as a virtual machine "
                      "guest (ctx_PRV_vmg) dominates)\n\n");

    std::vector<Bar> bars = frequencyBars(frequencies);
    appendf(out.rows, "%s\n", renderBarChart(bars).c_str());
    appendf(out.rows, "paper's top context: ctx_PRV_vmg — measured top: "
                      "%s\n",
                      frequencies[0].code.c_str());

    out.svgs.push_back(
        svgBarChart(bars, {.title = "Figure 17: most "
                                    "frequent contexts"}));
    return out;
}

/** Figure 18: most frequent observable effects of all errata. */
FigureOutput
renderEffects(const Database &db, const PipelineResult *)
{
    FigureOutput out;
    auto frequencies = categoryFrequencies(db, Axis::Effect);

    appendf(out.rows, "Figure 18: most frequent observable effects of "
                      "all errata\n");
    appendf(out.rows, "(paper shape [O12]: corrupted registers "
                      "(eff_CRP_reg), hangs (eff_HNG_hng) and\n"
                      " unpredictable behavior (eff_HNG_unp) on top)\n\n");

    std::vector<Bar> bars = frequencyBars(frequencies);
    appendf(out.rows, "%s\n", renderBarChart(bars).c_str());
    appendf(out.rows, "paper's top 3: eff_CRP_reg, eff_HNG_hng, "
                      "eff_HNG_unp — measured top 3: %s, %s, %s\n",
                      frequencies[0].code.c_str(),
                      frequencies[1].code.c_str(),
                      frequencies[2].code.c_str());

    out.svgs.push_back(
        svgBarChart(bars, {.title = "Figure 18: most "
                                    "frequent effects"}));
    return out;
}

/** Figure 19: most frequent MSRs containing observable effects. */
FigureOutput
renderMsrs(const Database &db, const PipelineResult *)
{
    FigureOutput out;
    auto frequencies = msrFrequencies(db);

    appendf(out.rows, "Figure 19: most frequent MSR families witnessing "
                      "observable effects\n");
    appendf(out.rows, "(paper shape [O13]: machine check status "
                      "registers (MCx_STATUS, MCx_ADDR) witness a\n"
                      " bug most often — 7.1%% to 8.5%% of unique errata "
                      "— followed by IBS registers and\n"
                      " performance counters)\n\n");

    AsciiTable table;
    table.setColumns({"MSR family", "Intel", "Intel %", "AMD",
                      "AMD %"},
                     {Align::Left, Align::Right, Align::Right,
                      Align::Right, Align::Right});
    std::vector<Bar> bars;
    for (std::size_t i = 0;
         i < frequencies.size() && i < 12; ++i) {
        const MsrFrequency &freq = frequencies[i];
        table.addRow({
            freq.family,
            std::to_string(freq.intelCount),
            strings::formatPercent(freq.intelFraction),
            std::to_string(freq.amdCount),
            strings::formatPercent(freq.amdFraction),
        });
        bars.push_back(Bar{freq.family,
                           static_cast<double>(freq.total()),
                           std::to_string(freq.total())});
    }
    appendf(out.rows, "%s\n", table.toString().c_str());
    appendf(out.rows, "top family: %s at %s (Intel) / %s (AMD) of "
                      "unique errata (paper: MCx_STATUS at "
                      "7.1%%-8.5%%)\n",
                      frequencies[0].family.c_str(),
                      strings::formatPercent(
                          frequencies[0].intelFraction)
                          .c_str(),
                      strings::formatPercent(frequencies[0].amdFraction)
                          .c_str());

    out.svgs.push_back(
        svgBarChart(bars, {.title = "Figure 19: MSR families "
                                    "witnessing effects"}));
    return out;
}

/** Table III: the inspected errata documents. */
FigureOutput
renderDocuments(const Database &, const PipelineResult *pipeline)
{
    FigureOutput out;
    const PipelineResult &result = *pipeline;
    appendf(out.rows, "Table III: inspected errata documents\n");
    appendf(out.rows, "(paper: 16 Intel Core documents, 12 AMD family "
                      "documents)\n\n");

    AsciiTable table;
    table.setColumns({"#", "vendor", "design", "reference",
                      "release", "revisions", "errata"},
                     {Align::Right, Align::Left, Align::Left,
                      Align::Left, Align::Left, Align::Right,
                      Align::Right});
    for (std::size_t d = 0; d < result.corpus.documents.size();
         ++d) {
        const ErrataDocument &doc = result.corpus.documents[d];
        if (d == firstAmdDocIndex)
            table.addSeparator();
        table.addRow({
            std::to_string(d),
            std::string(vendorName(doc.design.vendor)),
            doc.design.name,
            doc.design.reference,
            doc.design.releaseDate.toString(),
            std::to_string(doc.revisions.size()),
            std::to_string(doc.errata.size()),
        });
    }
    appendf(out.rows, "%s", table.toString().c_str());

    std::size_t intelDocs = 0, amdDocs = 0;
    for (const ErrataDocument &doc : result.corpus.documents) {
        if (doc.design.vendor == Vendor::Intel)
            ++intelDocs;
        else
            ++amdDocs;
    }
    appendf(out.rows, "\ndocuments: Intel %zu (paper: 16), AMD %zu "
                      "(paper: 12)\n",
                      intelDocs, amdDocs);
    return out;
}

/**
 * Tables I, II and VII: the vendor erratum formats and the paper's
 * proposed machine-friendly format, demonstrated on the
 * corresponding entries of the reproduced corpus.
 */
FigureOutput
renderFormat(const Database &db, const PipelineResult *pipeline)
{
    FigureOutput out;
    const PipelineResult &result = *pipeline;

    // Table I analog: the first erratum of the Core 12 document in
    // vendor style.
    const ErrataDocument &core12 = result.corpus.documents[15];
    const Erratum &first = core12.errata.front();
    appendf(out.rows, "Table I analog (vendor format, first Core 12 "
                      "erratum):\n\n");
    appendf(out.rows, "ID: %s\nTitle: %s\nDescription: %s\n"
                      "Implications: %s\nWorkaround: %s\nStatus: %s\n\n",
                      first.localId.c_str(), first.title.c_str(),
                      first.description.c_str(),
                      first.implications.c_str(),
                      first.workaroundText.c_str(),
                      statusText(first.status).c_str());

    // Table II analog: the most recent erratum of the AMD 19h doc.
    const ErrataDocument &zen3 = result.corpus.documents[27];
    const Erratum &latest = zen3.errata.back();
    appendf(out.rows, "Table II analog (vendor format, most recent "
                      "Fam 19h erratum):\n\n");
    appendf(out.rows, "ID: %s\nTitle: %s\nDescription: %s\n"
                      "Implications: %s\nWorkaround: %s\nStatus: %s\n\n",
                      latest.localId.c_str(), latest.title.c_str(),
                      latest.description.c_str(),
                      latest.implications.c_str(),
                      latest.workaroundText.c_str(),
                      statusText(latest.status).c_str());

    // Table VII: the same Core 12 entry in the proposed format.
    std::uint32_t bug = result.corpus.bugOfRow(15, 0);
    appendf(out.rows, "Table VII (proposed format for the same "
                      "erratum):\n\n%s\n",
                      renderProposedFormat(
                          db.entries()[bug])
                          .c_str());
    return out;
}

/**
 * Section VI-A observation-space ablation: greedy maximum-coverage
 * observation-point selection vs the naive top-frequency baseline,
 * plus the Section V-A4 conservative criticality breakdown.
 */
FigureOutput
renderObservationPlan(const Database &db, const PipelineResult *)
{
    FigureOutput out;
    const Taxonomy &taxonomy = Taxonomy::instance();

    appendf(out.rows, "Observation-budget ablation (Section VI-A: keep "
                      "the observation footprint minimal)\n\n");
    AsciiTable table;
    table.setColumns({"budget k", "greedy coverage",
                      "top-frequency coverage"},
                     {Align::Right, Align::Right, Align::Right});
    for (std::size_t budget : {1u, 2u, 3u, 4u, 6u, 8u, 12u}) {
        ObservationPlan greedy =
            selectObservationPoints(db, budget);
        ObservationPlan baseline =
            topFrequencyObservationPoints(db, budget);
        table.addRow({
            std::to_string(budget),
            strings::formatPercent(greedy.coverage()),
            strings::formatPercent(baseline.coverage()),
        });
    }
    appendf(out.rows, "%s\n", table.toString().c_str());

    ObservationPlan plan = selectObservationPoints(db, 5);
    appendf(out.rows, "greedy picks for a budget of 5:\n");
    for (std::size_t i = 0; i < plan.picks.size(); ++i) {
        appendf(out.rows, "  %zu. %-14s (cumulative coverage %s)\n",
                          i + 1,
                          taxonomy.categoryById(plan.picks[i])
                              .code.c_str(),
                          strings::formatPercent(
                              static_cast<double>(
                                  plan.coverageCurve[i]) /
                              static_cast<double>(plan.totalBugs))
                              .c_str());
    }

    appendf(out.rows, "\nConservative criticality (Section V-A4: 'only "
                      "a few bugs can be considered non-critical')\n\n");
    CriticalityBreakdown breakdown = criticalityBreakdown(db);
    AsciiTable crit;
    crit.setColumns({"band", "Intel", "AMD", "total"},
                    {Align::Left, Align::Right, Align::Right,
                     Align::Right});
    for (Criticality level :
         {Criticality::SecurityCritical,
          Criticality::LivenessCritical, Criticality::Functional,
          Criticality::Low}) {
        crit.addRow({
            std::string(criticalityName(level)),
            std::to_string(breakdown.intel[level]),
            std::to_string(breakdown.amd[level]),
            std::to_string(breakdown.total(level)),
        });
    }
    appendf(out.rows, "%s", crit.toString().c_str());
    appendf(out.rows, "\nnon-critical fraction: %s (paper: 'only a "
                      "few')\n",
                      strings::formatPercent(
                          static_cast<double>(
                              breakdown.total(Criticality::Low)) /
                          static_cast<double>(db.entries().size()))
                          .c_str());
    return out;
}

} // namespace

const std::vector<FigureEntry> &
figureRegistry()
{
    static const std::vector<FigureEntry> registry{
        {"table3_documents", {}, true, renderDocuments},
        {"fig2_timeline", {"fig2_intel", "fig2_amd"}, false,
         renderTimeline},
        {"fig3_heredity", {"fig3_heredity"}, false, renderHeredity},
        {"fig4_shared", {"fig4_shared"}, false, renderShared},
        {"fig5_latent", {"fig5_latent"}, false, renderLatent},
        {"fig6_workarounds", {"fig6_workarounds"}, false,
         renderWorkarounds},
        {"fig7_fixes", {"fig7_fixes"}, false, renderFixes},
        {"fig8_steps", {"fig8_steps"}, true, renderSteps},
        {"fig9_agreement", {"fig9_agreement"}, true, renderAgreement},
        {"fig10_triggers", {"fig10_triggers"}, false, renderTriggers},
        {"fig11_trigger_count", {"fig11_trigger_count"}, false,
         renderTriggerCount},
        {"fig12_correlation", {"fig12_correlation"}, false,
         renderCorrelation},
        {"fig13_evolution", {"fig13_evolution"}, false,
         renderEvolution},
        {"fig14_vendor_classes", {"fig14_vendor_classes"}, false,
         renderVendorClasses},
        {"fig15_external", {"fig15_external"}, false, renderExternal},
        {"fig16_features", {"fig16_features"}, false, renderFeatures},
        {"fig17_contexts", {"fig17_contexts"}, false, renderContexts},
        {"fig18_effects", {"fig18_effects"}, false, renderEffects},
        {"fig19_msrs", {"fig19_msrs"}, false, renderMsrs},
        {"table7_format", {}, true, renderFormat},
        {"observation_plan", {}, false, renderObservationPlan},
    };
    return registry;
}

} // namespace rememberr
