module alarmverify/bench

go 1.22

require alarmverify v0.0.0

replace alarmverify => ../
