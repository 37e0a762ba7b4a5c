# Sourced by scripts/abbench.sh and scripts/benchpairs.sh.
#
# export_rev REV DIR empties DIR and extracts git revision REV of the
# repository at $root into DIR/base with `git archive`, so REV builds from
# its own committed files, untouched by the working tree.
export_rev() {
	rm -rf "$2"
	mkdir -p "$2/base"
	git -C "$root" archive "$1" | tar -x -C "$2/base"
}
