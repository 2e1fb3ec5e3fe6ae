module github.com/tcio/tcio/benchmark

go 1.22

require github.com/tcio/tcio v0.0.0

replace github.com/tcio/tcio => ../
