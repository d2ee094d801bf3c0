"""Expected census outputs.

``CONNECTED_LC_CLASSES`` and ``CONNECTED_GRAPHS`` are published counts
(OEIS A090899 and A001349) and are independent of this code base.

``SYMMETRY_CSV`` and ``STATS_CSV`` are REGRESSION GOLDENS: the n = 7 output
of ``classes --n 7 --csv`` and ``stats --n 7 --csv`` frozen from the
program as it stood when the benchmark was written, the same way the test
suite freezes the n <= 6 saturation rows.  They catch a change in output,
not an error that was already there.
"""

CONNECTED_LC_CLASSES = {7: 26, 8: 101}
CONNECTED_GRAPHS = {7: 853}

STATS_CSV = {7: "1.62,3.12,0.85,0.58\n"}

SYMMETRY_CSV = {
    7: """\
class_id,n,partition,aut_in,aut_out_upper,aut_order,L,C,I
1,7,7,5040,1,5040,8,2,1260.00
2,7,2+5,240,1,240,20,6,72.00
3,7,3+4,144,1,144,22,6,39.27
4,7,1+2+4,48,1,48,46,16,16.70
5,7,1+3+3,36,2,72,48,10,15.00
6,7,2+2+3,24,2,48,50,10,9.60
7,7,2+2+3,24,2,48,48,10,10.00
8,7,2+2+3,24,2,24,50,16,7.68
9,7,2+2+3,24,2,48,52,10,9.23
10,7,1+1+2+3,12,2,12,104,44,5.08
11,7,1+1+1+1+3,6,24,48,220,21,4.58
12,7,1+2+2+2,8,6,8,106,44,3.32
13,7,1+1+1+2+2,4,12,16,232,36,2.48
14,7,1+2+2+2,8,6,16,110,26,3.78
15,7,1+2+2+2,8,6,16,112,28,4.00
16,7,1+2+2+2,8,6,48,108,14,6.22
17,7,1+1+1+2+2,4,12,8,224,66,2.36
18,7,1+1+1+2+2,4,12,8,236,72,2.44
19,7,1+1+1+1+1+2,2,120,8,492,114,1.85
20,7,1+1+1+1+1+2,2,120,16,484,56,1.85
21,7,1+1+1+1+1+2,2,120,16,504,57,1.81
22,7,1+1+1+1+1+2,2,120,240,528,9,4.09
23,7,1+1+1+1+1+1+1,1,5040,168,532,9,2.84
24,7,1+1+1+1+1+1+1,1,5040,48,1056,33,1.50
25,7,1+1+1+1+1+1+1,1,5040,48,1096,46,2.01
26,7,1+1+1+1+1+1+1,1,5040,14,1052,92,1.22
""",
}
