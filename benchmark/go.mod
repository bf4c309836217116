module meshcast/benchmark

go 1.22

require meshcast v0.0.0

replace meshcast => ../
