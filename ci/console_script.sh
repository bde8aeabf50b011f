#!/usr/bin/env bash
# Checks of the installed `weightdist` console script, run by CI under
# `bash -e`, one step.  Every command must succeed unless its exit code is
# tested.  RUNNER_TEMP names a scratch directory for the files it writes.
# To run it from a checkout without installing, put a `weightdist` shim
# for `python -m weightdist.cli` on PATH, with PYTHONPATH=src:
#
#   RUNNER_TEMP=$(mktemp -d) bash -e ci/console_script.sh
#
# It runs the weightdist entry point declared in pyproject.toml; enumerate,
# verify and census run the installed package's numpy enumeration and
# census through the field's array operations: over GF(4) and GF(9)
# from its q x q tables, over GF(257) and GF(3^6), above the table
# limit, directly (GF(3^6) subtracts base-p digit by digit); the
# high-rate [8,6]_3 code takes the syndrome count, the others the
# table enumeration; a command refuses a count flag it does not read;
# dual refuses --format too (exit 2), and the dual of the dual, whose
# generator is the kernel basis of the first dual's generator,
# enumerates as the code itself, for NMDS [8,4,4]_4, whose dual has
# its distribution, and for the [8,6]_3 code, whose [8,2]_3 dual does
# not; census csv opens with rank,count;
# a seed that matches no code is a mathematical failure (exit 1).
# The table enumeration runs the reduced row echelon form, so the
# GF(9) and GF(3^6) codes are enumerated a second time from another
# generator of the same row space, without the leading identity, and
# the outputs must match; a one-row GF(3^7) code's table is that
# row's own multiples.  One budget counts the work of the route
# taken: a random [30,27]_2 code, 8 syndromes and a census table of
# at most 435 nodes, verifies at the default, and a budget refusal
# exits 3, inside verify as in census.  The exact layer runs on the
# benchmark's solve command, [48,24]_49 MDS from 24 known counts,
# through crosscheck and the pless system; one count off matches no
# code (exit 1); extremal 8 runs the largest closed form it times.
# RS [27,5]_27 is enumerated over odd blocks of 27^3 weights, each
# padded by one for the paired weight tally, and must print the MDS
# closed form's distribution.  extremal prices its solve against the
# one budget: m = 1000 is refused (exit 3) within 10 s, before any
# solve, while m = 154 runs at the default.
# All 49 counts of that code as knowns leave no unknown, so both
# systems only check their rows and give back the same distribution;
# one count off exits 1.  RS [8,4]_9 has d = 5 where n - k = 4 seed
# knowns are needed, so its crosscheck solves overdetermined systems.
# pless-report reads the two systems' matrices, which only it builds;
# verify prints its checks as one JSON object when asked; a negative
# near-MDS seed is an input error (exit 2).  Each command imports
# only the modules it runs: -X importtime lists every module that a
# crosscheck imports on stderr, and the step fails if that names
# numpy, fractions, decimal or a weightdist module other than the
# package, cli, codes, errors, fileio and moments; the same holds for
# mds, which adds closed_forms
python -c "import json, weightdist as wd; A = wd.mds_distribution(48, 24, 49); print(json.dumps({str(i): str(A.counts[i]) for i in range(1, 48, 2)}))" > "$RUNNER_TEMP/mds48.json"
python -c "import json, weightdist as wd; A = wd.mds_distribution(48, 24, 49); k = {str(i): str(A.counts[i]) for i in range(1, 48, 2)}; k['25'] = str(A.counts[25] + 1); print(json.dumps(k))" > "$RUNNER_TEMP/mds48_bad.json"
weightdist crosscheck --n 48 --k 24 --q 49 --d 25 --dperp 25 --knowns "$RUNNER_TEMP/mds48.json"
python -X importtime -m weightdist.cli crosscheck --n 48 --k 24 --q 49 --d 25 --dperp 25 --knowns "$RUNNER_TEMP/mds48.json" > /dev/null 2> "$RUNNER_TEMP/importtime.txt"
grep -qE '\| +weightdist\.moments$' "$RUNNER_TEMP/importtime.txt"
if grep -E '\| +numpy|\| +(fractions|decimal)$|\| +weightdist\.' "$RUNNER_TEMP/importtime.txt" | grep -vE '\| +weightdist\.(cli|codes|errors|fileio|moments)$'; then exit 1; fi
python -X importtime -m weightdist.cli mds 48 24 49 > /dev/null 2> "$RUNNER_TEMP/importtime_mds.txt"
grep -qE '\| +weightdist\.closed_forms$' "$RUNNER_TEMP/importtime_mds.txt"
if grep -E '\| +numpy|\| +(fractions|decimal)$|\| +weightdist\.' "$RUNNER_TEMP/importtime_mds.txt" | grep -vE '\| +weightdist\.(cli|closed_forms|codes|errors|fileio|moments)$'; then exit 1; fi
weightdist solve --n 48 --k 24 --q 49 --d 25 --dperp 25 --knowns "$RUNNER_TEMP/mds48.json" --system pless
rc=0; weightdist crosscheck --n 48 --k 24 --q 49 --d 25 --dperp 25 --knowns "$RUNNER_TEMP/mds48_bad.json" || rc=$?
test "$rc" = 1
weightdist mds 48 24 49 --format json > "$RUNNER_TEMP/mds48_all.json"
python -c "import json; d = json.load(open('$RUNNER_TEMP/mds48_all.json')); d['A'][25] = str(int(d['A'][25]) + 1); print(json.dumps(d))" > "$RUNNER_TEMP/mds48_all_bad.json"
for system in pascal pless; do
  weightdist solve --n 48 --k 24 --q 49 --d 25 --dperp 25 --knowns "$RUNNER_TEMP/mds48_all.json" --system $system --format json > "$RUNNER_TEMP/mds48_$system.json"
  diff "$RUNNER_TEMP/mds48_all.json" "$RUNNER_TEMP/mds48_$system.json"
  rc=0; weightdist solve --n 48 --k 24 --q 49 --d 25 --dperp 25 --knowns "$RUNNER_TEMP/mds48_all_bad.json" --system $system || rc=$?
  test "$rc" = 1
done
python -c "import weightdist as wd; print(wd.format_code_file(wd.reed_solomon_code(wd.GF(9), 8, 4)), end='')" > "$RUNNER_TEMP/rs89.code"
weightdist verify "$RUNNER_TEMP/rs89.code" --which crosscheck
weightdist extremal 8
python -c "import weightdist as wd; print(wd.format_code_file(wd.reed_solomon_code(wd.GF(27), 27, 5)), end='')" > "$RUNNER_TEMP/rs27.code"
diff <(weightdist enumerate "$RUNNER_TEMP/rs27.code" --format csv) <(weightdist mds 27 5 27 --format csv)
rc=0; timeout 10 weightdist extremal 1000 || rc=$?
test "$rc" = 3
weightdist mds 8 4 9 --format csv
rc=0; weightdist mds 8 4 9 --workers 2 || rc=$?
test "$rc" = 2
weightdist nmds 8 4 4 27
weightdist amds 8 4 4 2 27
rc=0; weightdist nmds 8 4 4 60 || rc=$?
test "$rc" = 1
weightdist extremal 1
weightdist extremal 2
# the nonexistence certificate at m = 154 (Zhang's bound): the solve
# gives a negative A_624, so no [3696,1848,620] extremal type II
# code exists and the command exits 1 naming that count
rc=0; weightdist extremal 154 2> "$RUNNER_TEMP/extremal154.err" || rc=$?
test "$rc" = 1
grep -q 'A_624 = -' "$RUNNER_TEMP/extremal154.err"
weightdist fixtures --output "$RUNNER_TEMP/fx"
weightdist verify "$RUNNER_TEMP/fx/nmds_844_a.code" --which all
weightdist verify "$RUNNER_TEMP/fx/nmds_844_a.code" --format json | python -m json.tool
weightdist pless-report --n 48 --k 24 --q 49 --d 25 --dperp 25
rc=0; weightdist nmds 8 4 4 -1 || rc=$?
test "$rc" = 2
weightdist census "$RUNNER_TEMP/fx/nmds_844_a.code" --nu 4
test "$(weightdist census "$RUNNER_TEMP/fx/nmds_844_a.code" --nu 4 --format csv | head -n 1)" = "rank,count"
rc=0; weightdist dual "$RUNNER_TEMP/fx/nmds_844_a.code" --format json || rc=$?
test "$rc" = 2
python -c "import weightdist as wd; print(wd.format_code_file(wd.random_code(wd.GF(2), 30, 27, seed=30)), end='')" > "$RUNNER_TEMP/gf2_30.code"
weightdist verify "$RUNNER_TEMP/gf2_30.code"
rc=0; weightdist verify "$RUNNER_TEMP/fx/nmds_844_a.code" --inject-distribution "$RUNNER_TEMP/fx/nmds_844_a.dist.json" --budget 1 || rc=$?
test "$rc" = 3
rc=0; weightdist census "$RUNNER_TEMP/fx/nmds_844_a.code" --nu 4 --budget 1 || rc=$?
test "$rc" = 3
printf 'q=3^2\n6 3\n1 0 0 3 5 7\n0 1 0 2 8 4\n0 0 1 6 1 5\n' > "$RUNNER_TEMP/gf9.code"
printf 'q=257\n6 2\n1 0 3 5 7 11\n0 1 13 17 19 23\n' > "$RUNNER_TEMP/gf257.code"
printf 'q=3\n8 6\n1 0 0 0 0 0 1 1\n0 1 0 0 0 0 1 2\n0 0 1 0 0 0 2 1\n0 0 0 1 0 0 1 0\n0 0 0 0 1 0 0 1\n0 0 0 0 0 1 2 2\n' > "$RUNNER_TEMP/gf3_86.code"
printf 'q=3^6\n6 2\n1 0 5 77 300 728\n0 1 13 401 2 650\n' > "$RUNNER_TEMP/gf729.code"
for code in gf9 gf257 gf3_86 gf729; do
  weightdist enumerate "$RUNNER_TEMP/$code.code"
  weightdist verify "$RUNNER_TEMP/$code.code" --which all
done
for code in fx/nmds_844_a gf3_86; do
  weightdist dual "$RUNNER_TEMP/$code.code" > "$RUNNER_TEMP/$code.dual.code"
  weightdist dual "$RUNNER_TEMP/$code.dual.code" > "$RUNNER_TEMP/$code.dual2.code"
  diff <(weightdist enumerate "$RUNNER_TEMP/$code.code") <(weightdist enumerate "$RUNNER_TEMP/$code.dual2.code")
done
printf 'q=3^2\n6 3\n0 0 1 6 1 5\n0 1 1 8 6 6\n2 1 0 8 3 6\n' > "$RUNNER_TEMP/gf9_b.code"
printf 'q=3^6\n6 2\n0 1 13 401 2 650\n1 5 31 148 298 566\n' > "$RUNNER_TEMP/gf729_b.code"
for code in gf9 gf729; do
  weightdist enumerate "$RUNNER_TEMP/$code.code" > "$RUNNER_TEMP/$code.out"
  weightdist enumerate "$RUNNER_TEMP/${code}_b.code" > "$RUNNER_TEMP/${code}_b.out"
  diff "$RUNNER_TEMP/$code.out" "$RUNNER_TEMP/${code}_b.out"
done
printf 'q=3^7\n8 1\n0 5 2186 1000 1 7 300 2\n' > "$RUNNER_TEMP/gf2187.code"
weightdist enumerate "$RUNNER_TEMP/gf2187.code"
weightdist census "$RUNNER_TEMP/gf257.code" --nu 3
weightdist census "$RUNNER_TEMP/gf729.code" --nu 3
# A census takes the cheaper of its two walks, the whole table or
# the width alone, and the identity always reads the whole table.
# The 67-row H of a [70,3]_2 code walks width 2 alone, cheaper than
# its whole table on its 3-row kernel; the 70-row H of a [80,10]_2
# code walks width 2 alone, its census residuals held as Python
# ints; a low-rate GF(2^9) code walks its whole table on the kernel
# of H.  The [70,3]_2 code G = [I_3 | 67 copies of e_1], whose 68
# copies of e_1 make every nonempty subset of them rank 1, verifies
# within the table's price of 2,416 nodes.  The 197-row H of a
# random [200,3]_2 code walks one whole table on its 3-row kernel,
# which every width of verify reads, at the default budget.  Width 3
# of one row of 300 ones is walked alone at 300 + 2 * 301 * 4 =
# 2,708 operations, not as a whole table at 181,502; width 20 of
# RS [40,6]_256's H reads its whole table on the 6-row kernel at
# 160,314,487, far below width 20 alone
python -c "
rows = [[int(j == r) for j in range(3)] + [j * (r + 3) // 5 % 2 for j in range(67)] for r in range(3)]
print('q=2')
print(70, 3)
for row in rows:
    print(*row)
" > "$RUNNER_TEMP/gf2_70.code"
weightdist census "$RUNNER_TEMP/gf2_70.code" --nu 2
python -c "
rows = [[int(j == r) for j in range(3)] + [int(r == 0)] * 67 for r in range(3)]
print('q=2')
print(70, 3)
for row in rows:
    print(*row)
" > "$RUNNER_TEMP/gf2_70_e1.code"
weightdist verify "$RUNNER_TEMP/gf2_70_e1.code"
python -c "import weightdist as wd; print(wd.format_code_file(wd.random_code(wd.GF(2), 80, 10, seed=80)), end='')" > "$RUNNER_TEMP/gf2_80.code"
weightdist census "$RUNNER_TEMP/gf2_80.code" --nu 2
python -c "import weightdist as wd; print(wd.format_code_file(wd.random_code(wd.GF(2), 200, 3, seed=200)), end='')" > "$RUNNER_TEMP/gf2_200.code"
weightdist verify "$RUNNER_TEMP/gf2_200.code" --which all
printf 'q=2^9\n8 2\n1 0 5 77 300 511 2 9\n0 1 13 401 2 450 100 3\n' > "$RUNNER_TEMP/gf512.code"
weightdist verify "$RUNNER_TEMP/gf512.code" --which identity
python -c "print('q=2'); print(300, 1); print(*[1] * 300)" > "$RUNNER_TEMP/ones300.code"
weightdist census "$RUNNER_TEMP/ones300.code" --matrix g --nu 3 --budget 2708
rc=0; weightdist census "$RUNNER_TEMP/ones300.code" --matrix g --nu 3 --budget 2707 || rc=$?
test "$rc" = 3
python -c "import weightdist as wd; print(wd.format_code_file(wd.reed_solomon_code(wd.GF(256), 40, 6)), end='')" > "$RUNNER_TEMP/rs40.code"
weightdist census "$RUNNER_TEMP/rs40.code" --nu 20
