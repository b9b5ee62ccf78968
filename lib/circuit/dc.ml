module Vec = Adc_numerics.Vec
module Sparse = Adc_numerics.Sparse
module Tally = Adc_numerics.Tally

type result = {
  x : Vec.t;
  iterations : int;
  strategy : string;
  residual : float;
}

(* process-wide counts for live metrics: summed over every solve
   (converged or not) on any domain *)
let solves = Tally.make "solver.dc_solves_total"
let newton_iterations = Tally.make "solver.dc_newton_iterations_total"

let residual_norm ctx ~x ~time ~source_scale ~gmin ~cap_policy =
  let res = Vec.create (Array.length x) in
  Mna.residual_into ctx ~x ~time ~source_scale ~gmin ~cap_policy res;
  Vec.norm_inf res

(* Convergence: accept once the previous damped update was tiny AND the
   residual *assembled at the updated point* is small. The residual test
   used to read the pre-update residual, declaring convergence one
   iteration stale; iterating assembly-first makes the criterion exact at
   the returned point for free (each loop entry assembles at current x). *)
let[@inline] converged ~prev_dx ~res_norm = prev_dx < 1e-10 && res_norm < 1e-9

let[@inline] damp_and_update ~vstep_limit ~nv (x : float array) (dx : float array) =
  let max_v_step = ref 0.0 in
  for i = 0 to nv - 1 do
    max_v_step := Float.max !max_v_step (Float.abs dx.(i))
  done;
  let damp =
    if !max_v_step > vstep_limit then vstep_limit /. !max_v_step else 1.0
  in
  for i = 0 to Array.length x - 1 do
    x.(i) <- x.(i) +. (damp *. dx.(i))
  done;
  damp *. !max_v_step

(* [Vec.norm_inf], written out: its float result would be boxed *)
let[@inline] norm_inf (a : float array) =
  let m = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    m := Float.max !m (Float.abs a.(i))
  done;
  !m

type outcome = Running | Converged | Max_iter | Singular

(* The one damped-Newton kernel. Its iterations allocate nothing beyond
   what [Mna.assemble_into] does: the loop state is unboxed locals. It
   reports the iterations spent on failure too, so the DC tallies count
   every iteration a solve performs. *)
let newton_counted ?(max_iter = 120) ?(vstep_limit = 0.4) ?ctx ~x0 ~time
    ~source_scale ~gmin ~cap_policy nl =
  let ctx = match ctx with Some c -> c | None -> Mna.context nl in
  let nv = Netlist.node_count nl - 1 in
  let n = Netlist.unknown_count nl in
  let x = Vec.copy x0 in
  let rhs = Vec.create n and dx = Vec.create n in
  let res = Mna.ctx_residual ctx in
  let k = ref 0 and prev_dx = ref Float.infinity and outcome = ref Running in
  while !outcome = Running do
    Mna.assemble_into ctx ~x ~time ~source_scale ~gmin ~cap_policy;
    let res_norm = norm_inf res in
    if converged ~prev_dx:!prev_dx ~res_norm then outcome := Converged
    else if !k >= max_iter then outcome := Max_iter
    else begin
      for i = 0 to n - 1 do
        rhs.(i) <- -.res.(i)
      done;
      let solved =
        match Mna.factor_and_solve ctx ~rhs ~dx with
        | exception Sparse.Singular -> false
        | () -> true
      in
      if solved then begin
        prev_dx := damp_and_update ~vstep_limit ~nv x dx;
        incr k
      end
      else outcome := Singular
    end
  done;
  match !outcome with
  | Converged -> Ok (x, !k)
  | Singular -> Error ("Newton: singular Jacobian", !k)
  | Running | Max_iter ->
    Error (Printf.sprintf "Newton: no convergence in %d iterations" max_iter, !k)

let newton ?max_iter ?vstep_limit ?ctx ~x0 ~time ~source_scale ~gmin
    ~cap_policy nl =
  Result.map_error fst
    (newton_counted ?max_iter ?vstep_limit ?ctx ~x0 ~time ~source_scale ~gmin
       ~cap_policy nl)

let solve ?x0 ?(time = 0.0) ?(max_iter = 120) ?ctx nl =
  (match Netlist.validate nl with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Dc.solve: bad netlist: " ^ msg));
  (match ctx with
  | Some c when Mna.ctx_netlist c != nl ->
    invalid_arg "Dc.solve: ctx was built for a different netlist"
  | _ -> ());
  let n = Netlist.unknown_count nl in
  (match x0 with
  | Some x when Array.length x <> n ->
    invalid_arg
      (Printf.sprintf "Dc.solve: x0 has %d entries, the netlist %d unknowns"
         (Array.length x) n)
  | _ -> ());
  Tally.incr solves;
  let x0 = match x0 with Some x -> Vec.copy x | None -> Vec.create n in
  let ctx = match ctx with Some c -> c | None -> Mna.context nl in
  let newton ~x0 ~source_scale ~gmin =
    let r =
      newton_counted ~max_iter ~ctx ~x0 ~time ~source_scale ~gmin
        ~cap_policy:Mna.Cap_open nl
    in
    let (Ok (_, k) | Error (_, k)) = r in
    Tally.add newton_iterations k;
    Result.map_error fst r
  in
  let finish ~x ~iterations ~strategy =
    let residual =
      residual_norm ctx ~x ~time ~source_scale:1.0 ~gmin:0.0 ~cap_policy:Mna.Cap_open
    in
    Ok { x; iterations; strategy; residual }
  in
  (* 1. plain Newton with a tiny stabilizing gmin *)
  match newton ~x0 ~source_scale:1.0 ~gmin:1e-12 with
  | Ok (x, it) -> finish ~x ~iterations:it ~strategy:"newton"
  | Error _ ->
    (* 2. gmin stepping *)
    let gmins = [ 1e-3; 1e-4; 1e-5; 1e-6; 1e-7; 1e-8; 1e-9; 1e-10; 1e-11; 1e-12 ] in
    let rec gmin_steps x iters = function
      | [] -> Ok (x, iters)
      | g :: rest -> begin
        match newton ~x0:x ~source_scale:1.0 ~gmin:g with
        | Ok (x', it) -> gmin_steps x' (iters + it) rest
        | Error e -> Error e
      end
    in
    (match gmin_steps x0 0 gmins with
    | Ok (x, it) -> finish ~x ~iterations:it ~strategy:"gmin-stepping"
    | Error _ ->
      (* 3. source stepping at moderate gmin, then relax gmin *)
      let alphas = [ 0.05; 0.1; 0.2; 0.35; 0.5; 0.65; 0.8; 0.9; 1.0 ] in
      let rec src_steps x iters = function
        | [] -> Ok (x, iters)
        | a :: rest -> begin
          match newton ~x0:x ~source_scale:a ~gmin:1e-9 with
          | Ok (x', it) -> src_steps x' (iters + it) rest
          | Error e -> Error e
        end
      in
      (match src_steps (Vec.create n) 0 alphas with
      | Error e -> Error ("Dc.solve: all strategies failed: " ^ e)
      | Ok (x, it1) -> begin
        match gmin_steps x 0 [ 1e-10; 1e-11; 1e-12 ] with
        | Ok (x', it2) ->
          finish ~x:x' ~iterations:(it1 + it2) ~strategy:"source-stepping"
        | Error e -> Error ("Dc.solve: gmin relaxation failed: " ^ e)
      end))

let node_voltage r node = Mna.node_voltage_of r.x (Netlist.node_index node)

let branch_current nl r name =
  let nv = Netlist.node_count nl - 1 in
  match Netlist.branch_index nl name with
  | Some bi -> r.x.(nv + bi)
  | None -> invalid_arg (Printf.sprintf "Dc.branch_current: no branch %S" name)
