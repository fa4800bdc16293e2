#!/usr/bin/env python3
"""Check the tool command lines the docs show against the tools.

Every apsp_tool, serve_tool or bench_diff command in a fenced block of the
given Markdown files runs with --help appended.  --help exits 0 only when
every other flag is declared for the command's mode and its value parses,
so a doc that drifts from the flag declarations fails here.  Synopsis lines
(containing '[' or '...') are skipped; a shell operator ends a command.

usage: check_doc_commands.py <tool dir> <file.md>...
"""
import shlex
import subprocess
import sys

TOOLS = ("apsp_tool", "serve_tool", "bench_diff")
OPERATORS = ("|", "||", "&", "&&", ";")


def commands(path):
    """Yield (line number, argv) for each tool command in a fenced block."""
    in_block, start, text = False, 0, None
    for number, line in enumerate(open(path, encoding="utf-8"), 1):
        if line.lstrip().startswith("```"):
            in_block, text = not in_block, None
            continue
        line = line.strip()
        if text is None:
            words = line.split()
            if not (in_block and words and words[0].split("/")[-1] in TOOLS):
                continue
            start, text = number, ""
        text += " " + line.rstrip("\\")
        if line.endswith("\\"):
            continue
        if "[" not in text and "..." not in text:
            argv = shlex.split(text, comments=True)
            cut = [i for i, w in enumerate(argv)
                   if w in OPERATORS or w.startswith((">", "2>"))]
            yield start, argv[:cut[0]] if cut else argv
        text = None


def main():
    tool_dir, failed, checked = sys.argv[1], 0, 0
    for path in sys.argv[2:]:
        for number, argv in commands(path):
            tool = f"{tool_dir}/{argv[0].split('/')[-1]}"
            run = subprocess.run([tool, *argv[1:], "--help"],
                                 capture_output=True, text=True)
            checked += 1
            if run.returncode != 0:
                failed += 1
                print(f"{path}:{number}: exit {run.returncode}: "
                      f"{' '.join(argv)}\n  {run.stderr.strip()}")
    print(f"check_doc_commands: {checked} commands, {failed} refused")
    return 1 if failed or not checked else 0


if __name__ == "__main__":
    sys.exit(main())
