(* Inputs shared by the test suites: the shipped process cards, seeded
   OTA sizings around a first cut, and the solver switch. *)

module Ota = Adc_mdac.Ota

let share_dir =
  let rec find dir n =
    let cand = Filename.concat dir (Filename.concat "share" "processes") in
    if Sys.file_exists (Filename.concat cand "c025.sp") || n = 0 then cand
    else find (Filename.concat dir Filename.parent_dir_name) (n - 1)
  in
  find (Filename.dirname Sys.executable_name) 6

let card name =
  match Adc_spice.load_process_file (Filename.concat share_dir name) with
  | Ok p -> p
  | Error e -> Alcotest.failf "%s: %s" name e

(* Seeded candidates around the analytic first cut: every width, the
   bias current and the compensation scaled by independent factors in
   [0.8, 1.25], the cascode gate biases shifted by up to 0.2 V. *)
let candidates ~rng ~n (z : Ota.sizing) =
  let f () = exp (Random.State.float rng (2.0 *. log 1.25) -. log 1.25) in
  let dv () = Random.State.float rng 0.4 -. 0.2 in
  List.init n (fun _ ->
      {
        z with
        Ota.w_pair = z.Ota.w_pair *. f ();
        w_mirror = z.Ota.w_mirror *. f ();
        w_tail = z.Ota.w_tail *. f ();
        w_cs = z.Ota.w_cs *. f ();
        w_sink = z.Ota.w_sink *. f ();
        i_bias = z.Ota.i_bias *. f ();
        c_comp = z.Ota.c_comp *. f ();
        v_casc = z.Ota.v_casc +. dv ();
        v_cascp = z.Ota.v_cascp +. dv ();
      })


(* Run [f] on the production sparse solver or on the dense LU oracle. *)
let on_solver solver f =
  match solver with
  | `Sparse -> f ()
  | `Dense -> Adc_circuit.Mna.Oracle.with_dense f

let solver_name = function `Sparse -> "sparse" | `Dense -> "dense"
