/**
 * @file
 * The paper's figures and tables, rendered in one place.
 *
 * One registry entry per reproduced output of the evaluation: Table
 * III, Figures 2-19, Tables I/II/VII and the Section VI-A
 * observation-plan and Section V-A4 criticality rows. Each entry
 * computes its data once and returns both its SVG files and the text
 * rows EXPERIMENTS.md quotes (the measured series or table beside
 * the paper's published values). `rememberr figures` writes the
 * SVGs; `bench_figures` prints the rows.
 */

#ifndef REMEMBERR_REPORT_FIGURES_HH
#define REMEMBERR_REPORT_FIGURES_HH

#include <string>
#include <vector>

#include "core/pipeline.hh"

namespace rememberr {

/** What one registry entry renders. */
struct FigureOutput
{
    /** SVG documents, one per FigureEntry::svgNames, in that order. */
    std::vector<std::string> svgs;
    /** The reproduced rows, annotated with the paper's values. */
    std::string rows;
};

/** One reproduced figure or table of the paper. */
struct FigureEntry
{
    /** Registry name, e.g. "fig10_triggers". */
    std::string name;
    /** SVG files the entry renders (without ".svg"); none for tables. */
    std::vector<std::string> svgNames;
    /**
     * The entry reads the corpus or the classification run, which a
     * snapshot does not hold.
     */
    bool needsPipeline = false;
    /**
     * Render from the database and the pipeline run it came from;
     * `pipeline` may be null unless needsPipeline is set.
     */
    FigureOutput (*render)(const Database &db,
                           const PipelineResult *pipeline) = nullptr;
};

/** Every entry, in the order EXPERIMENTS.md discusses them. */
const std::vector<FigureEntry> &figureRegistry();

} // namespace rememberr

#endif // REMEMBERR_REPORT_FIGURES_HH
