(* Unit and property tests for the numeric substrate. *)

module Vec = Adc_numerics.Vec
module Mat = Adc_numerics.Mat
module Cxm = Adc_numerics.Cxm
module Poly = Adc_numerics.Poly
module Fft = Adc_numerics.Fft
module Rootfind = Adc_numerics.Rootfind
module Stats = Adc_numerics.Stats
module Rng = Adc_numerics.Rng
module Interp = Adc_numerics.Interp
module Units = Adc_numerics.Units
module Tally = Adc_numerics.Tally

let check_close ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps *. (1.0 +. Float.abs expected) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* ------------------------------------------------------------------ *)
(* Vec *)

let test_vec_basic () =
  let a = [| 1.0; 2.0; 3.0 |] and b = [| 4.0; 5.0; 6.0 |] in
  check_close "dot" 32.0 (Vec.dot a b);
  check_close "norm2" (sqrt 14.0) (Vec.norm2 a);
  check_close "norm_inf" 3.0 (Vec.norm_inf a);
  let c = Vec.add a b in
  check_close "add" 9.0 c.(2);
  let d = Vec.sub b a in
  check_close "sub" 3.0 d.(0);
  let y = Vec.copy b in
  Vec.axpy 2.0 a y;
  check_close "axpy" 6.0 y.(0);
  check_close "max_abs_diff" 3.0 (Vec.max_abs_diff a b)

let test_vec_dim_mismatch () =
  Alcotest.check_raises "add mismatch" (Invalid_argument "Vec: dimension mismatch")
    (fun () -> ignore (Vec.add [| 1.0 |] [| 1.0; 2.0 |]))

(* ------------------------------------------------------------------ *)
(* Mat *)

let test_lu_known_system () =
  (* 2x + y = 5; x + 3y = 10 -> x = 1, y = 3 *)
  let m = Mat.init 2 2 (fun i j -> [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |].(i).(j)) in
  let x = Mat.solve m [| 5.0; 10.0 |] in
  check_close "x" 1.0 x.(0);
  check_close "y" 3.0 x.(1)

let test_lu_pivoting () =
  (* zero leading pivot forces a row swap *)
  let m = Mat.init 2 2 (fun i j -> [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |].(i).(j)) in
  let x = Mat.solve m [| 2.0; 7.0 |] in
  check_close "x" 7.0 x.(0);
  check_close "y" 2.0 x.(1)

let test_lu_singular () =
  let m = Mat.init 2 2 (fun i j -> [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |].(i).(j)) in
  Alcotest.check_raises "singular" Mat.Singular (fun () -> ignore (Mat.solve m [| 1.0; 1.0 |]))

let test_mat_mul_identity () =
  let rng = Rng.create 7 in
  let a = Mat.init 4 4 (fun _ _ -> Rng.uniform_in rng (-1.0) 1.0) in
  let i4 = Mat.identity 4 in
  let p = Mat.mul a i4 in
  for i = 0 to 3 do
    for j = 0 to 3 do
      check_close "a*I" (Mat.get a i j) (Mat.get p i j)
    done
  done

let test_mat_transpose () =
  let a = Mat.init 2 3 (fun i j -> float_of_int ((10 * i) + j)) in
  let t = Mat.transpose a in
  Alcotest.(check int) "rows" 3 (Mat.rows t);
  check_close "t(2,1)" (Mat.get a 1 2) (Mat.get t 2 1)

let prop_lu_solve_residual =
  QCheck2.Test.make ~name:"lu solve has small residual" ~count:100
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + Rng.int_below rng 8 in
      (* diagonally dominant -> well conditioned *)
      let m =
        Mat.init n n (fun i j ->
            if i = j then 10.0 +. Rng.uniform rng else Rng.uniform_in rng (-1.0) 1.0)
      in
      let b = Array.init n (fun _ -> Rng.uniform_in rng (-5.0) 5.0) in
      let x = Mat.solve m b in
      let r = Vec.sub (Mat.mul_vec m x) b in
      Vec.norm_inf r < 1e-9)

(* ------------------------------------------------------------------ *)
(* Sparse *)

module Sparse = Adc_numerics.Sparse

let test_sparse_pattern_basic () =
  (* duplicates merge; slots are ordered by (col, row) *)
  let p =
    Sparse.pattern_of_entries ~n:3
      [| (0, 0); (2, 0); (0, 0); (1, 1); (0, 2); (2, 2) |]
  in
  Alcotest.(check int) "dim" 3 (Sparse.dim p);
  Alcotest.(check int) "nnz" 5 (Sparse.nnz p);
  Alcotest.(check bool) "mem" true (Sparse.mem p ~row:2 ~col:0);
  Alcotest.(check bool) "not mem" false (Sparse.mem p ~row:1 ~col:0);
  Alcotest.(check int) "slot order" 0 (Sparse.slot p ~row:0 ~col:0);
  Alcotest.(check int) "slot order 2" 1 (Sparse.slot p ~row:2 ~col:0);
  Alcotest.check_raises "off-pattern slot" Not_found (fun () ->
      ignore (Sparse.slot p ~row:1 ~col:2))

let dense_of_rows rows =
  let n = Array.length rows in
  Mat.init n n (fun i j -> rows.(i).(j))

let sparse_of_dense m n =
  let entries = ref [] in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if Mat.get m i j <> 0.0 then entries := (i, j) :: !entries
    done
  done;
  let p = Sparse.pattern_of_entries ~n (Array.of_list !entries) in
  let s = Sparse.create p in
  List.iter (fun (i, j) -> Sparse.add_at s ~row:i ~col:j (Mat.get m i j)) !entries;
  s

let test_sparse_known_system () =
  (* 2x + y = 5; x + 3y = 10 -> x = 1, y = 3 *)
  let m = dense_of_rows [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let s = sparse_of_dense m 2 in
  let num = Sparse.create_numeric (Sparse.analyze s) in
  Sparse.refactorize num s;
  let x = [| 0.0; 0.0 |] in
  Sparse.solve num ~b:[| 5.0; 10.0 |] ~x;
  check_close "x" 1.0 x.(0);
  check_close "y" 3.0 x.(1)

let test_sparse_refactorize_reuse () =
  (* one symbolic, two value sets: only numeric work on the second *)
  let m1 = dense_of_rows [| [| 4.0; 1.0 |]; [| 1.0; 5.0 |] |] in
  let s = sparse_of_dense m1 2 in
  let num = Sparse.create_numeric (Sparse.analyze s) in
  let before = Sparse.totals () in
  Sparse.refactorize num s;
  let x = [| 0.0; 0.0 |] in
  Sparse.solve num ~b:[| 5.0; 6.0 |] ~x;
  check_close "first x0" (1.0) x.(0);
  check_close "first x1" (1.0) x.(1);
  (* same topology, new values *)
  Sparse.clear s;
  Sparse.add_at s ~row:0 ~col:0 2.0;
  Sparse.add_at s ~row:0 ~col:1 1.0;
  Sparse.add_at s ~row:1 ~col:0 1.0;
  Sparse.add_at s ~row:1 ~col:1 3.0;
  Sparse.refactorize num s;
  Sparse.solve num ~b:[| 5.0; 10.0 |] ~x;
  check_close "second x0" 1.0 x.(0);
  check_close "second x1" 3.0 x.(1);
  let st = Fixtures.sparse_since before in
  Alcotest.(check int) "no re-analysis" 0 st.Sparse.total_analyses;
  Alcotest.(check int) "refactorizations" 2 st.Sparse.total_refactorizations;
  Alcotest.(check int) "solves" 2 st.Sparse.total_solves

let test_sparse_pivot_instability_fallback () =
  (* the first analysis picks the (dominant) diagonal; the second value
     set makes those pivots 1e-8 of their columns, forcing a re-pivot *)
  let m1 = dense_of_rows [| [| 10.0; 1.0 |]; [| 1.0; 10.0 |] |] in
  let s = sparse_of_dense m1 2 in
  let num = Sparse.create_numeric (Sparse.analyze s) in
  let before = Sparse.totals () in
  Sparse.refactorize num s;
  Sparse.clear s;
  Sparse.add_at s ~row:0 ~col:0 1e-8;
  Sparse.add_at s ~row:0 ~col:1 1.0;
  Sparse.add_at s ~row:1 ~col:0 1.0;
  Sparse.add_at s ~row:1 ~col:1 1e-8;
  Sparse.refactorize num s;
  let x = [| 0.0; 0.0 |] in
  Sparse.solve num ~b:[| 1.0; 2.0 |] ~x;
  (* x ~ [2; 1] for the anti-diagonal system *)
  check_close ~eps:1e-6 "x0" 2.0 x.(0);
  check_close ~eps:1e-6 "x1" 1.0 x.(1);
  let st = Fixtures.sparse_since before in
  Alcotest.(check int) "re-analysis happened" 1 st.Sparse.total_analyses

(* The anti-diagonal values of the fallback test, met by a second
   workspace over the same symbolic: the order the first one recovered
   is in the symbolic's set, so the second replays it instead of
   re-analysing, with the bits a fresh analysis gives. *)
let test_sparse_recovered_order_reused () =
  let m1 = dense_of_rows [| [| 10.0; 1.0 |]; [| 1.0; 10.0 |] |] in
  let s = sparse_of_dense m1 2 in
  let sym = Sparse.analyze s in
  let anti () =
    Sparse.clear s;
    Sparse.add_at s ~row:0 ~col:0 1e-8;
    Sparse.add_at s ~row:0 ~col:1 1.0;
    Sparse.add_at s ~row:1 ~col:0 1.0;
    Sparse.add_at s ~row:1 ~col:1 1e-8
  in
  let solve_bits num =
    let x = [| 0.0; 0.0 |] in
    Sparse.solve num ~b:[| 1.0; 2.0 |] ~x;
    Array.map Int64.bits_of_float x
  in
  let first = Sparse.create_numeric sym in
  let before = Sparse.totals () in
  Sparse.refactorize first s;
  anti ();
  Sparse.refactorize first s;
  Alcotest.(check int) "first workspace re-analyses" 1
    (Fixtures.sparse_since before).Sparse.total_analyses;
  let before = Sparse.totals () in
  let second = Sparse.create_numeric sym in
  Sparse.refactorize second s;
  let work = Fixtures.sparse_since before in
  Alcotest.(check int) "second workspace: no analysis" 0 work.Sparse.total_analyses;
  Alcotest.(check int) "one drift" 1 work.Sparse.total_pivot_drift;
  Alcotest.(check int) "one hit" 1 work.Sparse.total_pivot_order_hits;
  let fresh = Sparse.create_numeric (Sparse.analyze s) in
  Sparse.refactorize fresh s;
  Alcotest.(check (array int64)) "fresh analysis bits" (solve_bits fresh) (solve_bits second);
  Alcotest.(check (array int64)) "first workspace bits" (solve_bits fresh) (solve_bits first)

(* Column 0 ties rows 1 and 2 exactly with a small diagonal: the full
   analysis breaks the tie by its DFS order, which a recorded order does
   not keep, so even the order that analysis itself recovered is not
   replayed. *)
let test_sparse_tie_reanalyses () =
  let m1 =
    dense_of_rows [| [| 10.0; 1.0; 1.0 |]; [| 1.0; 10.0; 1.0 |]; [| 1.0; 1.0; 10.0 |] |]
  in
  let s = sparse_of_dense m1 3 in
  let sym = Sparse.analyze s in
  let tied =
    [| [| 1e-8; 1.0; 2.0 |]; [| 1.0; 1e-8; 3.0 |]; [| -1.0; 4.0; 1e-8 |] |]
  in
  Sparse.clear s;
  Array.iteri (fun i row -> Array.iteri (fun j v -> Sparse.add_at s ~row:i ~col:j v) row) tied;
  let x = Array.make 3 0.0 and xf = Array.make 3 0.0 in
  let b = [| 1.0; 2.0; 3.0 |] in
  let fresh = Sparse.create_numeric (Sparse.analyze s) in
  Sparse.refactorize fresh s;
  Sparse.solve fresh ~b ~x:xf;
  for round = 1 to 2 do
    let before = Sparse.totals () in
    let num = Sparse.create_numeric sym in
    Sparse.refactorize num s;
    let work = Fixtures.sparse_since before in
    let tag = Printf.sprintf "workspace %d: " round in
    Alcotest.(check int) (tag ^ "full analysis") 1 work.Sparse.total_analyses;
    Alcotest.(check int) (tag ^ "no hit") 0 work.Sparse.total_pivot_order_hits;
    Sparse.solve num ~b ~x;
    Alcotest.(check (array int64)) (tag ^ "fresh analysis bits")
      (Array.map Int64.bits_of_float xf) (Array.map Int64.bits_of_float x)
  done

(* Random MNA-shaped systems over one shared symbolic, analysed at
   dominant diagonals and then met with value sets that drift it: tiny
   diagonals, off-diagonal magnitudes from {0.5, 1, 2} so exact ties are
   common. Every factorization that drifts, on a fresh workspace or on
   one carried across the value sets, must give the bits of a fresh
   analysis of the same values (or the same [Singular]). *)
let prop_sparse_recovered_order_bits =
  QCheck2.Test.make ~name:"sparse drift recovery = fresh analysis, bit for bit" ~count:300
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 2 + Rng.int_below rng 9 in
      (* symmetric pattern; a few rows without a diagonal, as the branch
         rows of voltage sources *)
      let entries = ref [] in
      for i = 0 to n - 1 do
        if Rng.uniform rng < 0.8 then entries := (i, i) :: !entries;
        for j = i + 1 to n - 1 do
          if Rng.uniform rng < 0.35 then entries := (i, j) :: (j, i) :: !entries
        done
      done;
      let entries = Array.of_list !entries in
      let s = Sparse.create (Sparse.pattern_of_entries ~n entries) in
      let fill f =
        Sparse.clear s;
        Array.iter (fun (i, j) -> Sparse.add_at s ~row:i ~col:j (f i j)) entries
      in
      let mags = [| 0.5; 1.0; 2.0 |] in
      let drifting () =
        let v =
          Array.init n (fun i ->
              Array.init n (fun j ->
                  if i = j then
                    if Rng.uniform rng < 0.5 then float_of_int (4 + Rng.int_below rng 3)
                    else 1e-9
                  else
                    (if Rng.uniform rng < 0.5 then -1.0 else 1.0)
                    *. mags.(Rng.int_below rng 3)))
        in
        fun i j -> v.(i).(j)
      in
      let b = Array.init n (fun _ -> Rng.uniform_in rng (-5.0) 5.0) in
      let outcome num =
        match Sparse.refactorize num s with
        | () ->
          let x = Array.make n 0.0 in
          Sparse.solve num ~b ~x;
          Some (Array.map Int64.bits_of_float x)
        | exception Sparse.Singular -> None
      in
      let fresh () =
        match Sparse.analyze s with
        | sym -> outcome (Sparse.create_numeric sym)
        | exception Sparse.Singular -> None
      in
      fill (fun i j -> if i = j then 10.0 +. Rng.uniform rng else Rng.uniform_in rng (-1.0) 1.0);
      match Sparse.analyze s with
      | exception Sparse.Singular -> true
      | sym ->
        let sets = Array.init 4 (fun _ -> drifting ()) in
        let carried = Sparse.create_numeric sym in
        let agrees num =
          let drift0 = (Sparse.totals ()).Sparse.total_pivot_drift in
          let got = outcome num in
          (Sparse.totals ()).Sparse.total_pivot_drift = drift0 || got = fresh ()
        in
        (* twice over: the second pass meets the orders the first one
           recovered *)
        List.for_all
          (fun _ ->
            Array.for_all
              (fun f ->
                fill f;
                agrees (Sparse.create_numeric sym) && agrees carried)
              sets)
          [ 1; 2 ])

let test_sparse_singular () =
  let p = Sparse.pattern_of_entries ~n:2 [| (0, 0); (1, 1) |] in
  let s = Sparse.create p in
  Sparse.add_at s ~row:0 ~col:0 1.0;
  (* (1,1) left at zero -> structurally present but numerically singular *)
  Alcotest.check_raises "singular" Sparse.Singular (fun () ->
      ignore (Sparse.analyze s))

let prop_sparse_matches_dense =
  QCheck2.Test.make ~name:"sparse lu matches dense lu" ~count:200
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + Rng.int_below rng 12 in
      (* random sparsity, diagonally dominant so both solvers are
         well-conditioned *)
      let m =
        Mat.init n n (fun i j ->
            if i = j then 10.0 +. Rng.uniform rng
            else if Rng.uniform rng < 0.4 then Rng.uniform_in rng (-1.0) 1.0
            else 0.0)
      in
      let s = sparse_of_dense m n in
      let num = Sparse.create_numeric (Sparse.analyze s) in
      Sparse.refactorize num s;
      let b = Array.init n (fun _ -> Rng.uniform_in rng (-5.0) 5.0) in
      let x_dense = Mat.solve m b in
      let x = Array.make n 0.0 in
      Sparse.solve num ~b ~x;
      Vec.max_abs_diff x x_dense < 1e-9)

(* ------------------------------------------------------------------ *)
(* Cxm *)

let test_cxm_solve () =
  (* (1+i) x = 2 -> x = 1 - i *)
  let m = Cxm.create 1 in
  Cxm.set m 0 0 (Cxm.c 1.0 1.0);
  let x = Cxm.solve m [| Cxm.c 2.0 0.0 |] in
  check_close "re" 1.0 (Cxm.re x.(0));
  check_close "im" (-1.0) (Cxm.im x.(0))

let test_cxm_2x2 () =
  let m = Cxm.create 2 in
  Cxm.set m 0 0 (Cxm.c 2.0 0.0);
  Cxm.set m 0 1 (Cxm.c 0.0 1.0);
  Cxm.set m 1 0 (Cxm.c 0.0 (-1.0));
  Cxm.set m 1 1 (Cxm.c 3.0 0.0);
  let b = [| Cxm.c 1.0 0.0; Cxm.c 0.0 0.0 |] in
  let x = Cxm.solve m b in
  (* verify residual instead of hand-solving *)
  let mul i =
    Complex.add
      (Complex.mul (Cxm.get m i 0) x.(0))
      (Complex.mul (Cxm.get m i 1) x.(1))
  in
  Alcotest.(check bool) "row0" true (Cxm.approx_equal (mul 0) b.(0));
  Alcotest.(check bool) "row1" true (Cxm.approx_equal (mul 1) b.(1))

let test_cxm_db_phase () =
  check_close "db of 10" 20.0 (Cxm.db (Cxm.c 10.0 0.0));
  check_close "phase of i" 90.0 (Cxm.phase_deg (Cxm.c 0.0 1.0))

(* ------------------------------------------------------------------ *)
(* Poly *)

let test_poly_arith () =
  let p = Poly.of_coeffs [| 1.0; 2.0 |] in
  (* (1 + 2x) *)
  let q = Poly.of_coeffs [| 3.0; 0.0; 1.0 |] in
  (* (3 + x^2) *)
  let s = Poly.mul p q in
  (* 3 + 6x + x^2 + 2x^3 *)
  Alcotest.(check int) "degree" 3 (Poly.degree s);
  check_close "c0" 3.0 (Poly.coeffs s).(0);
  check_close "c1" 6.0 (Poly.coeffs s).(1);
  check_close "c2" 1.0 (Poly.coeffs s).(2);
  check_close "c3" 2.0 (Poly.coeffs s).(3);
  check_close "eval" (Poly.eval p 2.0 *. Poly.eval q 2.0) (Poly.eval s 2.0)

let test_poly_derivative () =
  let p = Poly.of_coeffs [| 1.0; 2.0; 3.0 |] in
  let d = Poly.derivative p in
  check_close "d/dx" (2.0 +. (6.0 *. 1.5)) (Poly.eval d 1.5)

let test_poly_roots_quadratic () =
  (* roots of x^2 - 3x + 2 are 1 and 2 *)
  let p = Poly.of_coeffs [| 2.0; -3.0; 1.0 |] in
  let rs = Poly.roots p in
  let reals = Array.map (fun (z : Complex.t) -> z.re) rs in
  Array.sort compare reals;
  check_close ~eps:1e-6 "root 1" 1.0 reals.(0);
  check_close ~eps:1e-6 "root 2" 2.0 reals.(1)

let test_poly_roots_complex_pair () =
  (* x^2 + 1 -> +-i *)
  let p = Poly.of_coeffs [| 1.0; 0.0; 1.0 |] in
  let rs = Poly.roots p in
  Array.iter
    (fun (z : Complex.t) ->
      check_close ~eps:1e-6 "re" 0.0 z.re;
      check_close ~eps:1e-6 "im magnitude" 1.0 (Float.abs z.im))
    rs

let test_poly_roots_wide_magnitudes () =
  (* transfer-function-like: poles at -1e3 and -1e9 *)
  let p = Poly.mul (Poly.of_coeffs [| 1e3; 1.0 |]) (Poly.of_coeffs [| 1e9; 1.0 |]) in
  let rs = Poly.roots p in
  let mags = Array.map (fun (z : Complex.t) -> Float.abs z.re) rs in
  Array.sort compare mags;
  check_close ~eps:1e-4 "small pole" 1e3 mags.(0);
  check_close ~eps:1e-4 "large pole" 1e9 mags.(1)

let prop_poly_from_roots_round_trip =
  QCheck2.Test.make ~name:"poly roots/from_roots round trip" ~count:60
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + Rng.int_below rng 5 in
      let roots =
        Array.init n (fun _ -> { Complex.re = Rng.uniform_in rng (-3.0) (-0.5); im = 0.0 })
      in
      let p = Poly.from_roots roots in
      let found = Poly.roots p in
      let sorted a =
        let c = Array.map (fun (z : Complex.t) -> z.re) a in
        Array.sort compare c;
        c
      in
      let want = sorted roots and got = sorted found in
      let ok = ref true in
      Array.iteri
        (fun i w -> if Float.abs (w -. got.(i)) > 1e-5 *. (1.0 +. Float.abs w) then ok := false)
        want;
      !ok)

(* Real polynomials whose coefficients span many decades, like the
   powers of time constants in a transfer function: each coefficient is
   a signed mantissa times 10^e with e in [-20, 20], a few set to exactly
   zero (the leading one never). *)
let gen_wide_poly =
  QCheck2.Gen.(
    let* n = int_range 1 14 in
    let coeff =
      let* zero = int_range 0 9 in
      if zero = 0 then return 0.0
      else
        let* m = float_range 1.0 10.0 and* e = int_range (-20) 20 and* neg = bool in
        return ((if neg then -.m else m) *. (10.0 ** float_of_int e))
    in
    let* lower = array_size (return n) coeff in
    let* m = float_range 1.0 10.0 and* e = int_range (-20) 20 in
    return (Array.append lower [| m *. (10.0 ** float_of_int e) |]))

let prop_roots_bit_equal_boxed_oracle =
  QCheck2.Test.make ~name:"roots bit-equal to the boxed Complex oracle" ~count:300
    ~print:(fun c -> String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") c)))
    gen_wide_poly
    (fun c ->
      let p = Poly.of_coeffs c in
      Oracle.same_roots (Oracle.roots p) (Poly.roots p)
      && Oracle.same_roots (Oracle.roots ~max_iter:7 p) (Poly.roots ~max_iter:7 p))

let test_poly_roots_rejects_non_finite () =
  (* a NaN coefficient used to leave every root unmoved, and the scaled
     initial circle came back as finite roots (1.17 +- 0.50i here) *)
  List.iter
    (fun c ->
      match Poly.roots (Poly.of_coeffs c) with
      | rs ->
        Alcotest.failf "accepted a non-finite coefficient: %d roots, first %g%+gi"
          (Array.length rs) rs.(0).Complex.re rs.(0).Complex.im
      | exception Invalid_argument _ -> ())
    [ [| 2.0; nan; 1.0 |]; [| nan; 1.0 |]; [| 1.0; 2.0; infinity |]; [| neg_infinity; 1.0; 1.0 |] ];
  Alcotest.(check bool) "is_finite" false (Poly.is_finite (Poly.of_coeffs [| 2.0; nan; 1.0 |]))

(* Tallies: names are unique across the linked modules (a second
   declaration is refused), and two domains adding at once lose nothing. *)
let test_tally_names_unique () =
  let names = List.map fst (Tally.all ()) in
  Alcotest.(check bool) "the solver tallies are declared" true
    (List.mem "solver.poly_roots_total" names && List.mem "solver.sparse_solves_total" names);
  Alcotest.(check int) "no name twice" (List.length names)
    (List.length (List.sort_uniq String.compare names));
  Alcotest.check_raises "a duplicate is refused"
    (Invalid_argument "Tally.make: duplicate name solver.poly_roots_total") (fun () ->
      ignore (Tally.make "solver.poly_roots_total"))

let test_tally_add_across_domains () =
  let t = Tally.make "test.tally_across_domains" in
  let work () =
    for i = 1 to 10_000 do
      Tally.add t i;
      Tally.incr t
    done
  in
  let d = Domain.spawn work in
  work ();
  Domain.join d;
  Alcotest.(check int) "both domains' adds" (2 * ((10_000 * 10_001 / 2) + 10_000)) (Tally.get t);
  Alcotest.(check bool) "listed" true (List.mem_assoc "test.tally_across_domains" (Tally.all ()))

(* The Aberth sweep allocates nothing: with [tol = 0] every call runs
   exactly [max_iter] sweeps, and 5 or 60 of them cost the same minor
   words (the setup and the result only). The tallies add once per call. *)
let test_poly_roots_allocation_free () =
  let p = Poly.from_roots (Array.init 11 (fun k -> { Complex.re = -.float_of_int (k + 1); im = 0.0 })) in
  let words max_iter =
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (Poly.roots ~tol:0.0 ~max_iter p));
    Gc.minor_words () -. before
  in
  ignore (words 1);
  let calls0 = Tally.get Poly.roots_calls and sweeps0 = Tally.get Poly.aberth_iterations
  and hits0 = Tally.get Poly.aberth_max_iter_hits in
  let w5 = words 5 and w60 = words 60 in
  Alcotest.(check (float 0.0)) "minor words independent of sweeps" w5 w60;
  Alcotest.(check int) "two calls" 2 (Tally.get Poly.roots_calls - calls0);
  Alcotest.(check int) "sweeps summed" 65 (Tally.get Poly.aberth_iterations - sweeps0);
  Alcotest.(check int) "both stopped at max_iter" 2 (Tally.get Poly.aberth_max_iter_hits - hits0)

(* Eleven real roots a tenth of a decade apart: the sweeps never meet
   [tol] = 1e-12, and the iteration stops 3 sweeps after every step
   first falls below 1e-8, bit for bit as the boxed oracle does. The
   200-sweep reference only wanders on the floor: the clustered roots
   are ill-conditioned, so they agree to 1e-10 relative, not to the
   last bit. *)
let test_poly_roots_floor_stop () =
  let p =
    Poly.from_roots (Array.init 11 (fun k -> { Complex.re = -.(10.0 ** (0.1 *. float_of_int k)); im = 0.0 }))
  in
  let stops0 = Tally.get Poly.aberth_floor_stops and hits0 = Tally.get Poly.aberth_max_iter_hits
  and sweeps0 = Tally.get Poly.aberth_iterations in
  let rs = Poly.roots p in
  Alcotest.(check int) "stopped at the floor" 1 (Tally.get Poly.aberth_floor_stops - stops0);
  Alcotest.(check int) "not at max_iter" 0 (Tally.get Poly.aberth_max_iter_hits - hits0);
  let sweeps = Tally.get Poly.aberth_iterations - sweeps0 in
  Alcotest.(check bool) (Printf.sprintf "%d sweeps, not 200" sweeps) true (sweeps < 30);
  Alcotest.(check bool) "bit-equal to the boxed oracle" true (Oracle.same_roots (Oracle.roots p) rs);
  let worst =
    Array.fold_left Float.max 0.0
      (Array.map2
         (fun a b -> Complex.norm (Complex.sub a b) /. Complex.norm b)
         rs
         (Oracle.roots ~floor_stop:false p))
  in
  Alcotest.(check bool) (Printf.sprintf "within %.2g of the 200-sweep roots" worst) true (worst < 1e-10)

(* ------------------------------------------------------------------ *)
(* FFT *)

let test_fft_impulse () =
  let x = Array.make 8 Complex.zero in
  x.(0) <- Complex.one;
  let y = Fft.forward x in
  Array.iter (fun (z : Complex.t) -> check_close "flat spectrum" 1.0 z.re) y

let test_fft_single_tone () =
  let n = 64 in
  let k = 5 in
  let x =
    Array.init n (fun i ->
        sin (2.0 *. Float.pi *. float_of_int k *. float_of_int i /. float_of_int n))
  in
  let spec = Fft.magnitude_spectrum x in
  (* bin k should hold n/2 of amplitude *)
  check_close ~eps:1e-6 "tone bin" (float_of_int n /. 2.0) spec.(k);
  check_close ~eps:1e-6 "dc bin" 0.0 spec.(0)

let test_fft_round_trip () =
  let rng = Rng.create 42 in
  let x = Array.init 32 (fun _ -> Cxm.c (Rng.uniform rng) (Rng.uniform rng)) in
  let y = Fft.inverse (Fft.forward x) in
  Array.iteri
    (fun i (z : Complex.t) ->
      check_close ~eps:1e-9 "re" x.(i).re z.re;
      check_close ~eps:1e-9 "im" x.(i).im z.im)
    y

let prop_fft_parseval =
  QCheck2.Test.make ~name:"fft parseval" ~count:50
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 1 lsl (3 + Rng.int_below rng 4) in
      let x = Array.init n (fun _ -> Rng.uniform_in rng (-1.0) 1.0) in
      let time_energy = Array.fold_left (fun a v -> a +. (v *. v)) 0.0 x in
      let spec = Fft.forward_real x in
      let freq_energy =
        (* Complex.norm2 is the squared magnitude *)
        Array.fold_left (fun a (z : Complex.t) -> a +. Complex.norm2 z) 0.0 spec
        /. float_of_int n
      in
      Float.abs (time_energy -. freq_energy) < 1e-6 *. (1.0 +. time_energy))

let test_fft_window_gain () =
  let w = Fft.window_coefficients Fft.Hann 128 in
  (* Hann coherent gain is 0.5 *)
  check_close ~eps:1e-2 "hann coherent gain" 0.5 (Stats.mean w)

let test_fft_rejects_non_power_of_two () =
  Alcotest.check_raises "bad length"
    (Invalid_argument "Fft: length must be a power of two") (fun () ->
      ignore (Fft.forward (Array.make 12 Complex.zero)))

(* ------------------------------------------------------------------ *)
(* Rootfind *)

let test_brent_cos () =
  let r = Rootfind.brent cos 1.0 2.0 in
  check_close ~eps:1e-10 "cos root" (Float.pi /. 2.0) r

let test_bisect_poly () =
  let f x = (x *. x) -. 2.0 in
  check_close ~eps:1e-9 "sqrt2" (sqrt 2.0) (Rootfind.bisect f 0.0 2.0)

let test_brent_no_bracket () =
  Alcotest.check_raises "no bracket" Rootfind.No_bracket (fun () ->
      ignore (Rootfind.brent (fun x -> (x *. x) +. 1.0) (-1.0) 1.0))

let test_newton_converges () =
  match Rootfind.newton ~f:(fun x -> (x *. x) -. 9.0) ~df:(fun x -> 2.0 *. x) 5.0 with
  | Some r -> check_close ~eps:1e-9 "newton sqrt9" 3.0 r
  | None -> Alcotest.fail "newton failed"

let test_golden_min () =
  let f x = (x -. 1.3) *. (x -. 1.3) in
  check_close ~eps:1e-6 "golden min" 1.3 (Rootfind.golden_min f 0.0 4.0)

let test_find_sign_change () =
  let xs = Array.init 11 (fun i -> float_of_int i) in
  match Rootfind.find_sign_change (fun x -> x -. 4.5) xs with
  | Some (a, b) ->
    check_close "lo" 4.0 a;
    check_close "hi" 5.0 b
  | None -> Alcotest.fail "expected sign change"

(* Monotone replay of the bias servo's bisection. The reference is the
   servo's plain bisection as it was written before the replay existed:
   probe every midpoint, stop within [tol], go right on a positive
   sample, left otherwise, end at a failed probe. *)
let servo_tol = 0.01
let servo_lo = 0.348
let servo_hi = 0.948

let plain_bisect probe lo hi =
  let rec go lo hi i =
    let mid = 0.5 *. (lo +. hi) in
    if i >= 60 then mid
    else
      match probe mid with
      | None -> mid
      | Some f ->
        if Float.abs f < servo_tol then mid
        else if f > 0.0 then go mid hi (i + 1)
        else go lo mid (i + 1)
  in
  go lo hi 0

(* the result of a search and the midpoints it probed, in order *)
let recorded search f =
  let probed = ref [] in
  let r = search (fun x -> probed := x :: !probed; f x) in
  (r, List.rev !probed)

let bits = Int64.bits_of_float
let same_float a b = Int64.equal (bits a) (bits b)

(* a replay that decided [want] without a failed probe *)
let decided want = function Ok m -> same_float want m | Error _ -> false

(* A non-increasing response on [servo_lo, servo_hi] like an open-loop
   amplifier's output around mid-supply: flat rails at +-r joined by a
   clamped-linear or tanh transition of slope -k centred at c. *)
type response = { clamped : bool; c : float; k : float; r : float }

let response_f m x =
  let u = -.m.k *. (x -. m.c) in
  if m.clamped then Float.max (-.m.r) (Float.min m.r u) else m.r *. tanh (u /. m.r)

let gen_response =
  QCheck2.Gen.(
    let* clamped = bool
    and* c = float_range (servo_lo +. 1e-6) (servo_hi -. 1e-6)
    and* lk = float_range 1.0 8.0
    and* r = float_range 0.005 1.0 in
    return { clamped; c; k = 10.0 ** lk; r })

let print_response m =
  Printf.sprintf "{clamped=%b; c=%h; k=%h; r=%h}" m.clamped m.c m.k m.r

(* Known samples: anywhere in the window, within a few transition widths
   of the centre, or at one of the midpoints plain bisection probes. *)
type sample_at = Anywhere of float | Near of float | Plain_mid of float

let gen_samples =
  QCheck2.Gen.(
    list_size (int_range 0 12)
      (oneof
         [
           map (fun u -> Anywhere u) (float_range 0.0 1.0);
           map (fun z -> Near z) (float_range (-5.0) 5.0);
           map (fun u -> Plain_mid u) (float_range 0.0 1.0);
         ]))

let sample_x m plain_mids = function
  | Anywhere u -> servo_lo +. (u *. (servo_hi -. servo_lo))
  | Near z -> Float.min servo_hi (Float.max servo_lo (m.c +. (z *. m.r /. m.k)))
  | Plain_mid u ->
    let n = List.length plain_mids in
    List.nth plain_mids (min (n - 1) (int_of_float (u *. float_of_int n)))

let replay_probe ~known probe =
  recorded (fun probe ->
      Rootfind.monotone_bisect ~tol:servo_tol ~known ~probe servo_lo servo_hi)
    probe

let replay ~known f = replay_probe ~known (fun x -> Some (f x))

let prop_monotone_bisect_replays_plain =
  QCheck2.Test.make ~name:"monotone replay returns the plain bisection's midpoint" ~count:500
    ~print:(fun (m, ss) -> Printf.sprintf "%s with %d samples" (print_response m) (List.length ss))
    QCheck2.Gen.(pair gen_response gen_samples)
    (fun (m, samples) ->
      let f = response_f m in
      let want, plain_mids =
        recorded (fun probe -> plain_bisect probe servo_lo servo_hi) (fun x -> Some (f x))
      in
      let empty, empty_mids = replay ~known:[] f in
      let known = List.map (fun s -> let x = sample_x m plain_mids s in (x, f x)) samples in
      let got, got_mids = replay ~known f in
      decided want empty
      && List.equal same_float plain_mids empty_mids
      && decided want got
      && List.for_all (fun x -> List.exists (same_float x) plain_mids) got_mids)

(* Two samples that cannot both come from a non-increasing function,
   straddling the first midpoint: the replay must not pick a side, so its
   first probe is that midpoint. *)
let prop_monotone_bisect_probes_on_contradiction =
  QCheck2.Test.make ~name:"monotone replay probes where known samples contradict" ~count:300
    ~print:(fun (m, ss, (p, q)) ->
      Printf.sprintf "%s with %d samples, contradiction at %h/%h" (print_response m)
        (List.length ss) p q)
    QCheck2.Gen.(
      triple gen_response gen_samples (pair (float_range 0.0 1.0) (float_range 0.0 1.0)))
    (fun (m, samples, (u, v)) ->
      let f = response_f m in
      let mid0 = 0.5 *. (servo_lo +. servo_hi) in
      let p = servo_lo +. (u *. (mid0 -. servo_lo)) and q = mid0 +. (v *. (servo_hi -. mid0)) in
      let _, plain_mids =
        recorded (fun probe -> plain_bisect probe servo_lo servo_hi) (fun x -> Some (f x))
      in
      let known =
        (p, -.(2.0 *. servo_tol))
        :: (q, 2.0 *. servo_tol)
        :: List.map (fun s -> let x = sample_x m plain_mids s in (x, f x)) samples
      in
      match replay ~known f with
      | _, first :: _ -> same_float first mid0
      | _, [] -> false)

(* A failed real probe ends the search at its midpoint and is told apart
   from a decided one: [Error mid] where plain bisection returned [mid]. *)
let test_monotone_bisect_failed_probe_ends_search () =
  let fails_right x = if x > 0.7 then None else Some (-1.0) in
  let got, probed =
    recorded (fun probe ->
        Rootfind.monotone_bisect ~tol:servo_tol ~known:[ (0.7, 1.0) ] ~probe servo_lo servo_hi)
      fails_right
  in
  (* the sample at 0.7 decides 0.648 (go right) unprobed; 0.798 is probed
     and fails *)
  (match got with
   | Error m -> check_close "ends at the failed midpoint" 0.798 m
   | Ok m -> Alcotest.failf "decided %g past a failed probe" m);
  Alcotest.(check int) "one probe" 1 (List.length probed);
  (* with nothing known: 0.648 is probed (go right), 0.798 is probed and
     fails *)
  let fails_past x = if x > 0.75 then None else Some 1.0 in
  let want, plain_mids = recorded (fun probe -> plain_bisect probe servo_lo servo_hi) fails_past in
  let empty, empty_mids = replay_probe ~known:[] fails_past in
  Alcotest.(check bool) "empty known set fails where plain bisection stops" true
    (match empty with Error m -> same_float want m | Ok _ -> false);
  Alcotest.(check int) "two probes" 2 (List.length empty_mids);
  Alcotest.(check bool) "same probes as plain bisection" true
    (List.equal same_float plain_mids empty_mids)

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_basic () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_close "mean" 2.5 (Stats.mean xs);
  check_close "variance" (5.0 /. 3.0) (Stats.variance xs);
  check_close "median" 2.5 (Stats.median xs);
  let lo, hi = Stats.min_max xs in
  check_close "min" 1.0 lo;
  check_close "max" 4.0 hi;
  check_close "rms" (sqrt 7.5) (Stats.rms xs)

let test_stats_percentile () =
  let xs = [| 10.0; 20.0; 30.0; 40.0; 50.0 |] in
  check_close "p0" 10.0 (Stats.percentile xs 0.0);
  check_close "p100" 50.0 (Stats.percentile xs 100.0);
  check_close "p25" 20.0 (Stats.percentile xs 25.0)

let test_stats_histogram () =
  let xs = [| 0.1; 0.2; 0.6; 0.9; 1.5; -0.3 |] in
  let h = Stats.histogram ~n_bins:2 ~lo:0.0 ~hi:1.0 xs in
  Alcotest.(check int) "low bin" 3 h.(0);
  (* 0.1 0.2 and clamped -0.3 *)
  Alcotest.(check int) "high bin" 3 h.(1)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create 123 and b = Rng.create 123 in
  for _ = 1 to 10 do
    check_close "same stream" (Rng.uniform a) (Rng.uniform b)
  done

let test_rng_bounds () =
  let rng = Rng.create 5 in
  for _ = 1 to 1000 do
    let v = Rng.uniform rng in
    Alcotest.(check bool) "in [0,1)" true (v >= 0.0 && v < 1.0);
    let k = Rng.int_below rng 7 in
    Alcotest.(check bool) "in [0,7)" true (k >= 0 && k < 7)
  done

let test_rng_gaussian_moments () =
  let rng = Rng.create 99 in
  let xs = Array.init 20000 (fun _ -> Rng.gaussian rng) in
  check_close ~eps:0.05 "mean ~ 0" 0.0 (Stats.mean xs);
  check_close ~eps:0.05 "sigma ~ 1" 1.0 (Stats.stddev xs)

let test_rng_shuffle_permutes () =
  let rng = Rng.create 11 in
  let a = Array.init 20 (fun i -> i) in
  Rng.shuffle_in_place rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Array.iteri (fun i v -> Alcotest.(check int) "permutation" i v) sorted

(* ------------------------------------------------------------------ *)
(* Interp *)

let test_interp_eval () =
  let t = Interp.of_samples [| (0.0, 0.0); (1.0, 10.0); (2.0, 0.0) |] in
  check_close "mid" 5.0 (Interp.eval t 0.5);
  check_close "clamp low" 0.0 (Interp.eval t (-1.0));
  check_close "clamp high" 0.0 (Interp.eval t 5.0)

let test_interp_crossings () =
  let t = Interp.of_samples [| (0.0, 0.0); (1.0, 10.0); (2.0, 0.0) |] in
  let xs = Interp.crossings t 5.0 in
  Alcotest.(check int) "two crossings" 2 (Array.length xs);
  check_close "first" 0.5 xs.(0);
  check_close "second" 1.5 xs.(1)

let test_interp_settling () =
  let t =
    Interp.of_samples
      [| (0.0, 0.0); (1.0, 0.8); (2.0, 1.05); (3.0, 0.99); (4.0, 1.0) |]
  in
  match Interp.last_time_outside t ~center:1.0 ~tol:0.02 with
  | Some x -> check_close "settles after overshoot" 2.0 x
  | None -> Alcotest.fail "expected settling instant"

(* ------------------------------------------------------------------ *)
(* Units *)

let test_units_format () =
  Alcotest.(check string) "mW" "3.20 mW" (Units.format 3.2e-3 "W");
  Alcotest.(check string) "MHz" "40.0 MHz" (Units.format 40e6 "Hz");
  Alcotest.(check string) "fF" "250 fF" (Units.format 250e-15 "F");
  Alcotest.(check string) "zero" "0 W" (Units.format 0.0 "W")

let test_units_db () =
  check_close "db" 40.0 (Units.db_of_ratio 100.0);
  check_close "ratio" 100.0 (Units.ratio_of_db 40.0)

(* ------------------------------------------------------------------ *)
(* additional edges *)

let test_units_negative_and_tiny () =
  Alcotest.(check string) "negative" "-1.50 mW" (Units.format (-1.5e-3) "W");
  Alcotest.(check bool) "attofarad floor" true
    (String.length (Units.format 1e-19 "F") > 0)

let test_rng_split_independent () =
  let a = Rng.create 5 in
  let b = Rng.split a in
  let xa = Rng.uniform a and xb = Rng.uniform b in
  Alcotest.(check bool) "streams differ" true (xa <> xb);
  let a2 = Rng.create 5 in
  let _ = Rng.split a2 in
  check_close "parent stream deterministic after split" xa (Rng.uniform a2)

let test_rng_copy_replays () =
  let a = Rng.create 9 in
  let c = Rng.copy a in
  check_close "copy replays" (Rng.uniform a) (Rng.uniform c)

let test_interp_rejects_bad_x () =
  Alcotest.(check bool) "non-increasing rejected" true
    (try
       ignore (Interp.of_samples [| (0.0, 0.0); (0.0, 1.0) |]);
       false
     with Invalid_argument _ -> true)

let test_mat_norm_inf () =
  let m = Mat.init 2 2 (fun i j -> [| [| 1.0; -4.0 |]; [| 2.0; 2.0 |] |].(i).(j)) in
  check_close "max row sum" 5.0 (Mat.norm_inf m)

let test_poly_monomial_and_pow () =
  let p = Poly.monomial 2.0 3 in
  check_close "2x^3 at 2" 16.0 (Poly.eval p 2.0);
  let q = Poly.pow (Poly.of_coeffs [| 1.0; 1.0 |]) 3 in
  (* (1+x)^3 at x=1 -> 8 *)
  check_close "binomial cube" 8.0 (Poly.eval q 1.0);
  Alcotest.(check int) "degree 3" 3 (Poly.degree q)

let test_fft_coherent_bin_is_odd () =
  let k = Fft.coherent_bin ~n:4096 ~fs:40e6 ~f_target:4.1e6 in
  Alcotest.(check bool) "odd bin" true (k mod 2 = 1);
  Alcotest.(check bool) "near the target" true
    (Float.abs ((float_of_int k *. 40e6 /. 4096.0) -. 4.1e6) < 0.1e6)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "numerics"
    [
      ( "vec",
        [ quick "basic ops" test_vec_basic; quick "dim mismatch" test_vec_dim_mismatch ] );
      ( "tally",
        [
          quick "names unique" test_tally_names_unique;
          quick "add across domains" test_tally_add_across_domains;
        ] );
      ( "mat",
        [
          quick "known 2x2" test_lu_known_system;
          quick "pivoting" test_lu_pivoting;
          quick "singular" test_lu_singular;
          quick "mul identity" test_mat_mul_identity;
          quick "transpose" test_mat_transpose;
          QCheck_alcotest.to_alcotest prop_lu_solve_residual;
        ] );
      ( "sparse",
        [
          quick "pattern basics" test_sparse_pattern_basic;
          quick "known 2x2" test_sparse_known_system;
          quick "refactorize reuse" test_sparse_refactorize_reuse;
          quick "pivot fallback" test_sparse_pivot_instability_fallback;
          quick "recovered order reused" test_sparse_recovered_order_reused;
          quick "exact tie re-analyses" test_sparse_tie_reanalyses;
          quick "singular" test_sparse_singular;
          QCheck_alcotest.to_alcotest prop_sparse_matches_dense;
          QCheck_alcotest.to_alcotest prop_sparse_recovered_order_bits;
        ] );
      ( "cxm",
        [
          quick "1x1 complex" test_cxm_solve;
          quick "2x2 residual" test_cxm_2x2;
          quick "db/phase" test_cxm_db_phase;
        ] );
      ( "poly",
        [
          quick "arith" test_poly_arith;
          quick "derivative" test_poly_derivative;
          quick "roots quadratic" test_poly_roots_quadratic;
          quick "roots complex" test_poly_roots_complex_pair;
          quick "roots wide magnitudes" test_poly_roots_wide_magnitudes;
          QCheck_alcotest.to_alcotest prop_poly_from_roots_round_trip;
          QCheck_alcotest.to_alcotest prop_roots_bit_equal_boxed_oracle;
          quick "roots reject non-finite coefficients" test_poly_roots_rejects_non_finite;
          quick "roots allocation-free" test_poly_roots_allocation_free;
          quick "roots stop at the rounding floor" test_poly_roots_floor_stop;
        ] );
      ( "fft",
        [
          quick "impulse" test_fft_impulse;
          quick "single tone" test_fft_single_tone;
          quick "round trip" test_fft_round_trip;
          quick "window gain" test_fft_window_gain;
          quick "rejects bad length" test_fft_rejects_non_power_of_two;
          QCheck_alcotest.to_alcotest prop_fft_parseval;
        ] );
      ( "rootfind",
        [
          quick "brent cos" test_brent_cos;
          quick "bisect" test_bisect_poly;
          quick "no bracket" test_brent_no_bracket;
          quick "newton" test_newton_converges;
          quick "golden" test_golden_min;
          quick "sign change" test_find_sign_change;
          QCheck_alcotest.to_alcotest prop_monotone_bisect_replays_plain;
          QCheck_alcotest.to_alcotest prop_monotone_bisect_probes_on_contradiction;
          quick "monotone replay ends at a failed probe" test_monotone_bisect_failed_probe_ends_search;
        ] );
      ( "stats",
        [
          quick "basic" test_stats_basic;
          quick "percentile" test_stats_percentile;
          quick "histogram" test_stats_histogram;
        ] );
      ( "rng",
        [
          quick "deterministic" test_rng_deterministic;
          quick "bounds" test_rng_bounds;
          quick "gaussian moments" test_rng_gaussian_moments;
          quick "shuffle" test_rng_shuffle_permutes;
        ] );
      ( "interp",
        [
          quick "eval" test_interp_eval;
          quick "crossings" test_interp_crossings;
          quick "settling" test_interp_settling;
        ] );
      ("units", [ quick "format" test_units_format; quick "db" test_units_db ]);
      ( "edges",
        [
          quick "units negative/tiny" test_units_negative_and_tiny;
          quick "rng split" test_rng_split_independent;
          quick "rng copy" test_rng_copy_replays;
          quick "interp bad x" test_interp_rejects_bad_x;
          quick "mat norm_inf" test_mat_norm_inf;
          quick "poly monomial/pow" test_poly_monomial_and_pow;
          quick "fft coherent bin" test_fft_coherent_bin_is_odd;
        ] );
    ]
