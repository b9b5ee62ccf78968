module Vec = Adc_numerics.Vec
module Mat = Adc_numerics.Mat
module Sparse = Adc_numerics.Sparse

type cap_companion = { geq : float; ieq : float }

type cap_policy =
  | Cap_open
  | Cap_companion of (cap_index:int -> np:int -> nn:int -> farads:float -> cap_companion)

let node_voltage_of (x : Vec.t) n = if n = 0 then 0.0 else x.(n - 1)

let cap_count nl =
  List.fold_left
    (fun acc d -> match d with Netlist.Capacitor _ -> acc + 1 | _ -> acc)
    0 (Netlist.devices nl)

(* Single generic traversal behind every assembler. [jadd r c v] receives
   matrix coordinates (node rows already shifted by -1, branch rows
   absolute); [fadd i v] accumulates the residual. The *sequence* of jadd
   calls depends only on the device list and the Cap_open/Cap_companion
   distinction — never on [x], [time] or element values — which is what
   lets the sparse assembler replay a pre-recorded slot program. *)
let assemble_core nl ~x ~time ~source_scale ~gmin ~cap_policy ~jadd ~fadd =
  let nv = Netlist.node_count nl - 1 in
  (* constructor-registered branches: a miss is a corrupted netlist *)
  let branch name =
    match Netlist.branch_index nl name with
    | Some bi -> bi
    | None -> invalid_arg (Printf.sprintf "Mna.assemble: no branch %S" name)
  in
  let v node = node_voltage_of x node in
  let row node = node - 1 in
  (* stamp a current i leaving [node] with given partials *)
  let stamp_f node i = if node <> 0 then fadd (row node) i in
  let stamp_j r c g = if r <> 0 && c <> 0 then jadd (row r) (row c) g in
  let stamp_conductance a b g =
    stamp_j a a g;
    stamp_j b b g;
    stamp_j a b (-.g);
    stamp_j b a (-.g)
  in
  let stamp_resistor_like np nn ohms =
    let g = 1.0 /. ohms in
    let i = g *. (v np -. v nn) in
    stamp_f np i;
    stamp_f nn (-.i);
    stamp_conductance np nn g
  in
  let mos_polarity_params = Process.mos (Netlist.process nl) in
  let cap_idx = ref 0 in
  let stamp_device d =
    match d with
    | Netlist.Resistor { np; nn; ohms; _ } -> stamp_resistor_like np nn ohms
    | Netlist.Switch { np; nn; r_on; r_off; closed_at; _ } ->
      stamp_resistor_like np nn (if closed_at time then r_on else r_off)
    | Netlist.Capacitor { np; nn; farads; _ } -> begin
      let k = !cap_idx in
      incr cap_idx;
      match cap_policy with
      | Cap_open -> ()
      | Cap_companion f ->
        let { geq; ieq } = f ~cap_index:k ~np ~nn ~farads in
        let i = (geq *. (v np -. v nn)) +. ieq in
        stamp_f np i;
        stamp_f nn (-.i);
        stamp_conductance np nn geq
    end
    | Netlist.Isource { np; nn; wave; _ } ->
      let i = source_scale *. Stimulus.value wave time in
      (* positive current flows np -> nn through the source *)
      stamp_f np i;
      stamp_f nn (-.i)
    | Netlist.Vsource { v_name; np; nn; wave; _ } ->
      let bi = nv + branch v_name in
      let ib = x.(bi) in
      stamp_f np ib;
      stamp_f nn (-.ib);
      if np <> 0 then jadd (row np) bi 1.0;
      if nn <> 0 then jadd (row nn) bi (-1.0);
      let vval = source_scale *. Stimulus.value wave time in
      fadd bi (v np -. v nn -. vval);
      if np <> 0 then jadd bi (row np) 1.0;
      if nn <> 0 then jadd bi (row nn) (-1.0)
    | Netlist.Vcvs { e_name; p; n = nneg; cp; cn; gain } ->
      let bi = nv + branch e_name in
      let ib = x.(bi) in
      stamp_f p ib;
      stamp_f nneg (-.ib);
      if p <> 0 then jadd (row p) bi 1.0;
      if nneg <> 0 then jadd (row nneg) bi (-1.0);
      fadd bi (v p -. v nneg -. (gain *. (v cp -. v cn)));
      if p <> 0 then jadd bi (row p) 1.0;
      if nneg <> 0 then jadd bi (row nneg) (-1.0);
      if cp <> 0 then jadd bi (row cp) (-.gain);
      if cn <> 0 then jadd bi (row cn) gain
    | Netlist.Mos { d; g; s; b; polarity; w; l; mult; _ } ->
      let params = mos_polarity_params polarity in
      let vgs = v g -. v s and vds = v d -. v s and vbs = v b -. v s in
      let e = Mosfet.eval params polarity ~w ~l ~vgs ~vds ~vbs in
      let ids = mult *. e.ids in
      let gm = mult *. e.gm and gds = mult *. e.gds and gmb = mult *. e.gmb in
      stamp_f d ids;
      stamp_f s (-.ids);
      stamp_j d g gm;
      stamp_j d d gds;
      stamp_j d b gmb;
      stamp_j d s (-.(gm +. gds +. gmb));
      stamp_j s g (-.gm);
      stamp_j s d (-.gds);
      stamp_j s b (-.gmb);
      stamp_j s s (gm +. gds +. gmb)
  in
  List.iter stamp_device (Netlist.devices nl);
  (* gmin from every node to ground stabilizes floating subcircuits and
     enables gmin stepping. Stamped unconditionally (possibly with 0.0)
     so the call sequence is gmin-independent. *)
  for nd = 1 to nv do
    jadd (nd - 1) (nd - 1) gmin;
    fadd (nd - 1) (gmin *. x.(nd - 1))
  done

let assemble nl ~x ~time ~source_scale ~gmin ~cap_policy =
  let n = Netlist.unknown_count nl in
  let jac = Mat.create n n in
  let res = Vec.create n in
  assemble_core nl ~x ~time ~source_scale ~gmin ~cap_policy
    ~jadd:(fun r c v -> Mat.add_to jac r c v)
    ~fadd:(fun i v -> res.(i) <- res.(i) +. v);
  (jac, res)

let residual_into nl ~x ~time ~source_scale ~gmin ~cap_policy res =
  Array.fill res 0 (Array.length res) 0.0;
  assemble_core nl ~x ~time ~source_scale ~gmin ~cap_policy
    ~jadd:(fun _ _ _ -> ())
    ~fadd:(fun i v -> res.(i) <- res.(i) +. v)

(* ------------------------------------------------------------------ *)
(* Sparse contexts and the per-topology symbolic cache                 *)
(* ------------------------------------------------------------------ *)

type cache_entry = { mutable sym : Sparse.symbolic option }

(* Symbolic factorizations keyed by structural pattern. Annealing
   evaluates thousands of candidate sizings over a handful of circuit
   topologies; candidates with equal patterns share one read-only
   symbolic. The mutex only guards the table — analysis itself runs
   outside the lock. *)
let cache : (int, (Sparse.pattern * cache_entry) list ref) Hashtbl.t =
  Hashtbl.create 16

let cache_mutex = Mutex.create ()
let cache_analyses = ref 0
let max_cached_topologies = 64

let intern_pattern pat =
  Mutex.lock cache_mutex;
  let key = Sparse.pattern_hash pat in
  let entry =
    match Hashtbl.find_opt cache key with
    | Some bucket -> begin
      match
        List.find_opt (fun (p, _) -> Sparse.pattern_equal p pat) !bucket
      with
      | Some (_, e) -> e
      | None ->
        let e = { sym = None } in
        bucket := (pat, e) :: !bucket;
        e
    end
    | None ->
      if Hashtbl.length cache >= max_cached_topologies then Hashtbl.reset cache;
      let e = { sym = None } in
      Hashtbl.replace cache key (ref [ (pat, e) ]);
      e
  in
  Mutex.unlock cache_mutex;
  entry

(* The sparse state behind a production context. *)
type sparse_lu = {
  mat : Sparse.t;
  prog_open : int array;  (* slot per jadd call under Cap_open *)
  prog_companion : int array;  (* slot per jadd call under Cap_companion *)
  entry : cache_entry;
  mutable numeric : Sparse.numeric option;
}

type solver =
  | Sparse_lu of sparse_lu
  | Dense_lu of { mutable jac : Mat.t }
      (* the oracle: the last [assemble]d Jacobian, solved by [Mat.solve] *)

type ctx = { nl : Netlist.t; res : Vec.t; solver : solver }

module Oracle = struct
  let dense = Domain.DLS.new_key (fun () -> false)

  let with_dense f =
    let prev = Domain.DLS.get dense in
    Domain.DLS.set dense true;
    Fun.protect ~finally:(fun () -> Domain.DLS.set dense prev) f
end

let sparse_lu nl =
  let n = Netlist.unknown_count nl in
  let x0 = Vec.create n in
  let dummy_companion =
    Cap_companion
      (fun ~cap_index:_ ~np:_ ~nn:_ ~farads:_ -> { geq = 1.0; ieq = 0.0 })
  in
  (* one recording pass per policy; the companion pass (a superset of the
     open one) also yields the pattern entries *)
  let record policy =
    let calls = ref [] in
    assemble_core nl ~x:x0 ~time:0.0 ~source_scale:1.0 ~gmin:1.0
      ~cap_policy:policy
      ~jadd:(fun r c _ -> calls := (r, c) :: !calls)
      ~fadd:(fun _ _ -> ());
    Array.of_list (List.rev !calls)
  in
  let calls_companion = record dummy_companion in
  let calls_open = record Cap_open in
  let pat = Sparse.pattern_of_entries ~n calls_companion in
  let to_prog calls =
    Array.map (fun (r, c) -> Sparse.slot pat ~row:r ~col:c) calls
  in
  {
    mat = Sparse.create pat;
    prog_open = to_prog calls_open;
    prog_companion = to_prog calls_companion;
    entry = intern_pattern pat;
    numeric = None;
  }

let context nl =
  let n = Netlist.unknown_count nl in
  let solver =
    if Domain.DLS.get Oracle.dense then Dense_lu { jac = Mat.create n n }
    else Sparse_lu (sparse_lu nl)
  in
  { nl; res = Vec.create n; solver }

let ctx_netlist ctx = ctx.nl
let ctx_residual ctx = ctx.res

let assemble_into ctx ~x ~time ~source_scale ~gmin ~cap_policy =
  match ctx.solver with
  | Sparse_lu lu ->
    Sparse.clear lu.mat;
    Array.fill ctx.res 0 (Array.length ctx.res) 0.0;
    let prog =
      match cap_policy with
      | Cap_open -> lu.prog_open
      | Cap_companion _ -> lu.prog_companion
    in
    let cur = ref 0 in
    assemble_core ctx.nl ~x ~time ~source_scale ~gmin ~cap_policy
      ~jadd:(fun _ _ v ->
        Sparse.add lu.mat (Array.unsafe_get prog !cur) v;
        incr cur)
      ~fadd:(fun i v -> ctx.res.(i) <- ctx.res.(i) +. v)
  | Dense_lu d ->
    let jac, res = assemble ctx.nl ~x ~time ~source_scale ~gmin ~cap_policy in
    d.jac <- jac;
    Array.blit res 0 ctx.res 0 (Array.length res)

let ensure_numeric lu =
  match lu.numeric with
  | Some num -> num
  | None ->
    let sym =
      Mutex.lock cache_mutex;
      let cached = lu.entry.sym in
      Mutex.unlock cache_mutex;
      match cached with
      | Some s -> s
      | None ->
        (* analyze outside the lock (reads only this ctx's matrix);
           first writer wins, racers just recompute an identical value *)
        let s = Sparse.analyze lu.mat in
        Mutex.lock cache_mutex;
        let s =
          match lu.entry.sym with
          | Some existing -> existing
          | None ->
            lu.entry.sym <- Some s;
            incr cache_analyses;
            s
        in
        Mutex.unlock cache_mutex;
        s
    in
    let num = Sparse.create_numeric sym in
    lu.numeric <- Some num;
    num

let factor_and_solve ctx ~rhs ~dx =
  match ctx.solver with
  | Sparse_lu lu ->
    let num = ensure_numeric lu in
    Sparse.refactorize num lu.mat;
    Sparse.solve num ~b:rhs ~x:dx
  | Dense_lu d -> (
    match Mat.solve d.jac rhs with
    | exception Mat.Singular -> raise Sparse.Singular
    | sol -> Array.blit sol 0 dx 0 (Array.length sol))

let ctx_stats ctx =
  match ctx.solver with
  | Sparse_lu { numeric = Some num; _ } -> Sparse.stats num
  | Sparse_lu { numeric = None; _ } | Dense_lu _ ->
    { Sparse.analyses = 0; refactorizations = 0; solves = 0 }

let shared_analyses () = !cache_analyses
