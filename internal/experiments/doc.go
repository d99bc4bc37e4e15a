// Package experiments regenerates every table and figure of the paper's
// evaluation section from the models in this repository. Each experiment
// returns a Report whose rows mirror the paper's published rows/series, so
// paper-vs-measured comparison is direct (the paper map in
// docs/ARCHITECTURE.md names the experiment behind each artifact).
package experiments
