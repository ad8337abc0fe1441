module vodcast/benchmark

go 1.22

require vodcast v0.0.0

replace vodcast => ../
