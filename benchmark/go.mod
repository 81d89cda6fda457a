module probprune/benchmark

go 1.24

require probprune v0.0.0

replace probprune => ../
