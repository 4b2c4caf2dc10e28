#!/usr/bin/env bash
# Prints the size figure ROADMAP.md and every CHANGES.md entry quote:
# lines of non-test Go outside benchmark/ (after gofmt, comments and
# blank lines included). The CI vet job fails when it is above the
# ceiling written in .github/workflows/ci.yml, so growth is a reviewed
# edit of that one number.
set -euo pipefail
cd "$(dirname "$0")/.."
git ls-files -co --exclude-standard -- '*.go' ':!benchmark/' ':!*_test.go' | xargs cat | wc -l
