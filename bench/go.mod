module cptraffic/bench

go 1.22

require cptraffic v0.0.0

replace cptraffic => ../
