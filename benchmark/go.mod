// The benchmark is a module of its own so that it builds from its own
// build file. The end-to-end harness (this directory) imports only the
// standard library; only ./layers imports rdffrag/internal/..., which
// the module path prefix and the replace below make legal.
module rdffrag/benchmark

go 1.24

require rdffrag v0.0.0

replace rdffrag => ../
