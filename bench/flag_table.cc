/**
 * @file
 * Print the bench flag table as markdown: the README "Flag reference"
 * block, which `run_all.sh --docs-check` diffs against this output.
 */

#include <cstdio>

#include "bench_common.hh"

int
main()
{
    std::fputs(socflow::bench::flagTableMarkdown().c_str(), stdout);
    return 0;
}
