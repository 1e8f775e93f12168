/**
 * @file
 * Unit tests for the report writers (tables, charts, SVG) and the
 * figure registry.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "report/chart.hh"
#include "report/figures.hh"
#include "report/svg.hh"
#include "report/table.hh"
#include "util/logging.hh"
#include "util/strings.hh"

namespace rememberr {
namespace {

TEST(AsciiTable, RendersAlignedColumns)
{
    AsciiTable table;
    table.setColumns({"name", "count"}, {Align::Left, Align::Right});
    table.addRow({"Trg_CFG_wrg", "172"});
    table.addRow({"Trg_POW_tht", "9"});
    std::string out = table.toString();
    EXPECT_NE(out.find("| name "), std::string::npos);
    EXPECT_NE(out.find("|   172 |"), std::string::npos);
    EXPECT_NE(out.find("|     9 |"), std::string::npos);
    // Rules above and below the header and at the bottom.
    int rules = 0;
    for (const std::string &line : strings::splitLines(out)) {
        if (!line.empty() && line[0] == '+')
            ++rules;
    }
    EXPECT_EQ(rules, 3);
}

TEST(AsciiTable, SeparatorInsertsRule)
{
    AsciiTable table;
    table.setColumns({"a"});
    table.addRow({"1"});
    table.addSeparator();
    table.addRow({"2"});
    std::string out = table.toString();
    int rules = 0;
    for (const std::string &line : strings::splitLines(out)) {
        if (!line.empty() && line[0] == '+')
            ++rules;
    }
    EXPECT_EQ(rules, 4);
}

TEST(AsciiTable, RowCountTracksRows)
{
    AsciiTable table;
    table.setColumns({"a", "b"});
    EXPECT_EQ(table.rowCount(), 0u);
    table.addRow({"1", "2"});
    EXPECT_EQ(table.rowCount(), 1u);
}

TEST(BarChart, ScalesToWidth)
{
    std::vector<Bar> bars{{"big", 100.0, "100"},
                          {"half", 50.0, "50"},
                          {"zero", 0.0, ""}};
    std::string out = renderBarChart(bars, 20);
    auto lines = strings::splitLines(out);
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_NE(lines[0].find(strings::repeat("#", 20)),
              std::string::npos);
    EXPECT_NE(lines[1].find(strings::repeat("#", 10)),
              std::string::npos);
    EXPECT_EQ(lines[2].find('#'), std::string::npos);
}

TEST(BarChart, HandlesAllZeroValues)
{
    std::vector<Bar> bars{{"a", 0.0, ""}, {"b", 0.0, ""}};
    std::string out = renderBarChart(bars, 10);
    EXPECT_EQ(out.find('#'), std::string::npos);
}

TEST(PairedBarChart, RendersBothSeries)
{
    std::vector<PairedBar> bars{{"Trg_POW", 0.3, 0.25}};
    std::string out = renderPairedBarChart(bars, "Intel", "AMD");
    EXPECT_NE(out.find("Intel"), std::string::npos);
    EXPECT_NE(out.find("AMD"), std::string::npos);
    EXPECT_NE(out.find("30.0%"), std::string::npos);
    EXPECT_NE(out.find("25.0%"), std::string::npos);
}

TEST(Heatmap, UsesShadeRamp)
{
    std::vector<std::vector<std::size_t>> cells{{0, 1}, {2, 4}};
    std::string out = renderHeatmap({"r0", "r1"}, {"c0", "c1"},
                                    cells);
    EXPECT_NE(out.find('#'), std::string::npos); // max cell
    EXPECT_NE(out.find("legend"), std::string::npos);
    EXPECT_NE(out.find("c1"), std::string::npos);
}

TEST(SeriesByYear, SamplesAtYearEnds)
{
    CumulativeSeries s;
    s.label = "doc";
    s.points = {{Date(2010, 6, 1), 3}, {Date(2011, 6, 1), 7}};
    std::string out = renderSeriesByYear({s}, 2009, 2012);
    // Dash before the series starts, then cumulative values.
    EXPECT_NE(out.find("-"), std::string::npos);
    EXPECT_NE(out.find("3"), std::string::npos);
    EXPECT_NE(out.find("7"), std::string::npos);
}

// ---- SVG -----------------------------------------------------------------

bool
balancedSvg(const std::string &svg)
{
    return svg.find("<svg") == 0 &&
           svg.rfind("</svg>") != std::string::npos;
}

TEST(Svg, LineChartWellFormed)
{
    CumulativeSeries s;
    s.label = "Core 6";
    s.points = {{Date(2015, 8, 5), 10}, {Date(2016, 8, 5), 50}};
    SvgOptions options;
    options.title = "Figure 2";
    std::string svg = svgLineChart({s}, options);
    EXPECT_TRUE(balancedSvg(svg));
    EXPECT_NE(svg.find("polyline"), std::string::npos);
    EXPECT_NE(svg.find("Figure 2"), std::string::npos);
    EXPECT_NE(svg.find("Core 6"), std::string::npos);
}

TEST(Svg, LineChartHandlesEmptySeries)
{
    std::string svg = svgLineChart({});
    EXPECT_TRUE(balancedSvg(svg));
}

TEST(Svg, BarChartWellFormed)
{
    std::vector<Bar> bars{{"Trg_CFG_wrg", 172.0, "172"},
                          {"Trg_POW_tht", 124.0, "124"}};
    std::string svg = svgBarChart(bars);
    EXPECT_TRUE(balancedSvg(svg));
    EXPECT_NE(svg.find("Trg_CFG_wrg"), std::string::npos);
    EXPECT_NE(svg.find("<rect"), std::string::npos);
}

TEST(Svg, HeatmapWellFormed)
{
    std::vector<std::vector<std::size_t>> cells{{0, 5}, {5, 9}};
    std::string svg = svgHeatmap({"a", "b"}, {"x", "y"}, cells);
    EXPECT_TRUE(balancedSvg(svg));
    // 4 cells plus the background rect.
    std::size_t rects = 0, pos = 0;
    while ((pos = svg.find("<rect", pos)) != std::string::npos) {
        ++rects;
        pos += 5;
    }
    EXPECT_EQ(rects, 5u);
}

TEST(Svg, EscapesXmlInLabels)
{
    std::vector<Bar> bars{{"a<b>&c", 1.0, ""}};
    std::string svg = svgBarChart(bars);
    EXPECT_EQ(svg.find("a<b>"), std::string::npos);
    EXPECT_NE(svg.find("a&lt;b&gt;&amp;c"), std::string::npos);
}

// ---- Figure registry ----------------------------------------------------

const std::string figuresDir = REMEMBERR_SOURCE_DIR "/figures";

TEST(FigureRegistry, RendersTheCommittedFiguresByteForByte)
{
    setLogQuiet(true);
    PipelineResult result = runPipeline(PipelineOptions{});

    std::set<std::string> names;
    std::vector<std::string> moved;
    for (const FigureEntry &entry : figureRegistry()) {
        FigureOutput output =
            entry.render(result.groundTruth, &result);
        ASSERT_EQ(output.svgs.size(), entry.svgNames.size())
            << entry.name;
        for (std::size_t i = 0; i < output.svgs.size(); ++i) {
            const std::string &name = entry.svgNames[i];
            names.insert(name);
            std::ifstream in(figuresDir + "/" + name + ".svg");
            std::ostringstream committed;
            committed << in.rdbuf();
            if (committed.str() != output.svgs[i])
                moved.push_back(name);
        }
    }
    EXPECT_EQ(moved, std::vector<std::string>{})
        << "rendered figures differ from figures/";

    std::set<std::string> files;
    for (const auto &file :
         std::filesystem::directory_iterator(figuresDir))
        files.insert(file.path().stem().string());
    EXPECT_EQ(names, files);
    EXPECT_EQ(names.size(), 19u);
}

} // namespace
} // namespace rememberr
