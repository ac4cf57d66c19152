#!/bin/sh
# Run a fixed matrix of CLI commands, each in text and in JSON, and print every
# command with its output (stdout and stderr) and its exit status.  Diff the
# output of two checkouts to show which bytes a change moves:
#
#     sh tools/cli_matrix.sh SAMPLE_FILE > after.txt
#
# SAMPLE_FILE is a sample file in the file:PATH grammar, one decimal per line
# (src/jensen_sharp/data/uniform_10_100_seed42.txt is the pinned one).  The
# package is run from the checkout that holds this script; PYTHON picks the
# interpreter (default python3).  There are 39 commands.  The last eight are
# error cases; the three before them run a quadratic, whose h is identically its
# coefficient a, so h must read a at every end they report.  The oracle on
# exp:t=3 over normal:mu=0,sigma=40 overflows phi at the tail nodes of its
# quadrature and must print inf with nothing on stderr, so a numpy warning that
# leaks from an evaluation shows in the diff.  The two oracles after it walk a
# piece that QUADPACK does not trust: the tail of exp:t=0.505 over
# exp:rate=1.485 reads NaN, as phi overflows where the density underflows, and
# power:p=-1.4 over exp:rate=1 diverges at the finite end 0.  The power mean at
# r = 0.00001 over exp:rate=1 takes the series form of the variance of X**r, and
# its moment bracket is the point Gamma(1.00002).  Three samples are
# written to a temporary directory and named relative to it, so that the output
# does not depend on where that directory is: three 5s; two 1e308s, whose sum
# overflows; and 2,000 values exp(sin(k)), k = 1..2000, printed with repr, large
# enough that the atom sums take the vector path of distributions._fsum; split in
# two cells, each of 1,000 atoms takes that path with its least and greatest
# atoms as the bound of its sums.
set -u
if [ $# -ne 1 ]; then
    echo "usage: sh tools/cli_matrix.sh SAMPLE_FILE" >&2
    exit 2
fi
sample=$1
root=$(cd "$(dirname "$0")/.." && pwd)
const=$(mktemp -d)
trap 'rm -rf "$const"' EXIT
printf '5\n5\n5\n' > "$const/three_fives.txt"
printf '1e308\n1e308\n' > "$const/two_1e308.txt"
"${PYTHON:-python3}" -c 'import math
for k in range(1, 2001):
    print(repr(math.exp(math.sin(k))))' > "$const/exp_sin_2000.txt"

run() {
    for format in text json; do
        echo "\$ jensen-sharp $* --format $format"
        PYTHONPATH="$root/src" "${PYTHON:-python3}" -m jensen_sharp "$@" --format "$format" 2>&1
        echo "exit: $?"
        echo
    done
}

run bound --phi exp:t=0.5 --dist exp:rate=1 --oracle quad
run bound --phi neglog --dist exp:rate=1 --oracle quad
run bound --phi power:p=3 --dist uniform:lo=1,hi=3 --oracle quad
run bound --phi exp:t=1 --dist normal:mu=0,sigma=1
run sample-bound --phi neglog --dist "file:$sample" --oracle exact
run partition --phi exp:t=1 --dist normal:mu=0,sigma=1 --cells 3 --oracle quad
run partition --phi neglog --dist exp:rate=1 --cells 4
run partition --phi power:p=3 --dist uniform:lo=1,hi=3 --cuts 1.5,2.5 --oracle quad
run partition --phi exp:t=1 --dist normal:mu=0,sigma=1 --cuts 1,1.0001
run power-mean --dist "file:$sample" --r 1 --s -1 --oracle exact
run power-mean --dist exp:rate=1 --r 2 --s 0.5 --oracle quad
run power-mean --dist uniform:lo=1,hi=3 --r -1 --s 2 --oracle mc:n=10000,seed=1
run power-mean --dist uniform:lo=1.5,hi=5 --r 3 --s 1.5 --oracle quad
run power-mean --dist exp:rate=1 --r 0.00001 --s 0.00002 --oracle quad
run oracle --phi exp:t=0.5 --dist exp:rate=1 --oracle mc:n=100000,seed=42
run oracle --phi exp:t=2 --dist exp:rate=1 --oracle quad
run oracle --phi exp:t=3 --dist normal:mu=0,sigma=40 --oracle quad
run oracle --phi exp:t=0.505 --dist exp:rate=1.485 --oracle quad
run oracle --phi power:p=-1.4 --dist exp:rate=1 --oracle quad
run paper
run partition --phi neglog --dist "file:$sample" --cells 4 --oracle exact
run bound --phi power:p=-1 --dist "file:$sample" --oracle mc:n=20000,seed=3
run power-mean --dist "file:$sample" --r 2 --s 0.5 --oracle exact
(cd "$const" && run bound --phi exp:t=3 --dist file:three_fives.txt --oracle mc:n=1000,seed=1)
(cd "$const" && run sample-bound --phi neglog --dist file:exp_sin_2000.txt --oracle exact)
(cd "$const" && run partition --phi neglog --dist file:exp_sin_2000.txt --cells 8 --oracle exact)
(cd "$const" && run partition --phi neglog --dist file:exp_sin_2000.txt --cells 2 --oracle exact)
(cd "$const" && run power-mean --dist file:exp_sin_2000.txt --r 1 --s -1 --oracle exact)
run bound --phi quad:a=0.871,b=-0.145,c=-0.328 --dist uniform:lo=0.3,hi=2.7 --oracle quad
run partition --phi quad:a=0.871,b=-0.145,c=-0.328 --dist uniform:lo=0.3,hi=2.7 --cells 3
run sample-bound --phi quad:a=0.871,b=-0.145,c=-0.328 --dist "file:$sample"
run bound --phi exp:t=1,x=2 --dist exp:rate=1
run bound --phi exp:t=1 --dist exp:rate=1,sigma=3
run bound --phi exp:t=1 --dist normal:mu=0
run sample-bound --phi neglog --dist "file:$sample.missing"
run partition --phi exp:t=1 --dist uniform:lo=0,hi=1 --cuts 2.0
run paper --seed 3
run bound --phi exp:t=1 --dist exp:rate=1 --seed 5
(cd "$const" && run sample-bound --phi quad:a=1 --dist file:two_1e308.txt)
