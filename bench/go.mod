// The benchmark is a module of its own so that it builds from this
// directory alone against whatever commit it is overlaid on. The module
// path stays under repro/ so the internal packages remain importable.
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
