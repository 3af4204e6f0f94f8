module astore/benchmark

go 1.24

require astore v0.0.0

replace astore => ../
