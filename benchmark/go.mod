module pastas/benchmark

go 1.24

require pastas v0.0.0

replace pastas => ../
