module tcppr/benchmark

go 1.22

require tcppr v0.0.0

replace tcppr => ../
