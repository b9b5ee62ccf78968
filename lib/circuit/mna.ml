module Vec = Adc_numerics.Vec
module Mat = Adc_numerics.Mat
module Sparse = Adc_numerics.Sparse
module Tally = Adc_numerics.Tally

type cap_policy = Cap_open | Cap_companion of { geq : float array; ieq : float array }

let[@inline] node_voltage_of (x : float array) n = if n = 0 then 0.0 else x.(n - 1)

let cap_count nl =
  Array.fold_left
    (fun acc d -> match d with Netlist.Capacitor _ -> acc + 1 | _ -> acc)
    0 (Netlist.device_array nl)

(* constructor-registered branches: a miss is a corrupted netlist *)
let branch nl name =
  match Netlist.branch_index nl name with
  | Some bi -> bi
  | None -> invalid_arg (Printf.sprintf "Mna.assemble: no branch %S" name)

(* The reference stamping traversal. [jadd r c v] receives matrix
   coordinates (node rows already shifted by -1, branch rows absolute);
   [fadd i v] accumulates the residual. The *sequence* of jadd calls
   depends only on the device list and the Cap_open/Cap_companion
   distinction — never on [x], [time] or element values — which is what
   lets a topology's slot programs be recorded once. It has two jobs:
   that recording, and the dense oracle. Production contexts run the
   compiled loop below, which does its float ops in its order. *)
let assemble_core nl ~x ~time ~source_scale ~gmin ~cap_policy ~jadd ~fadd =
  let nv = Netlist.node_count nl - 1 in
  let branch = branch nl in
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
    | Netlist.Capacitor { np; nn; _ } -> begin
      let k = !cap_idx in
      incr cap_idx;
      match cap_policy with
      | Cap_open -> ()
      | Cap_companion { geq; ieq } ->
        let geq = geq.(k) in
        let i = (geq *. (v np -. v nn)) +. ieq.(k) in
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
  Array.iter stamp_device (Netlist.device_array nl);
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


(* ------------------------------------------------------------------ *)
(* The per-topology caches                                             *)
(* ------------------------------------------------------------------ *)

type cache_entry = { mutable sym : Sparse.symbolic option }

(* Symbolic factorizations keyed by structural pattern. Annealing
   evaluates thousands of candidate sizings over a handful of circuit
   topologies; candidates with equal patterns share one read-only
   symbolic. The mutex guards this table and the topology table below;
   analysis and compilation run outside it. *)
let cache : (int, (Sparse.pattern * cache_entry) list ref) Hashtbl.t =
  Hashtbl.create 16

let cache_mutex = Mutex.create ()
let cache_analyses = Tally.make "solver.shared_analyses_total"
let max_cached_topologies = 64

(* What a topology compiles to: its pattern and symbolic entry, the slot
   of every [jadd] call [assemble_core] makes under each capacitor policy,
   and the MNA row of each device's branch current (-1 for none). *)
type topology = {
  n_nodes : int;
  n_devices : int;
  pat : Sparse.pattern;
  prog_open : int array;
  prog_companion : int array;
  branch_row : int array;
  entry : cache_entry;
}

(* The structure a topology is keyed by, values left out: the node
   count, then per device its kind, its nodes and its branch index. *)
let topology_key nl =
  let devs = Netlist.device_array nl in
  let words = function
    | Netlist.Resistor _ | Netlist.Capacitor _ | Netlist.Isource _ | Netlist.Switch _ -> 3
    | Netlist.Vsource _ -> 4
    | Netlist.Mos _ -> 5
    | Netlist.Vcvs _ -> 6
  in
  let key = Array.make (Array.fold_left (fun n d -> n + words d) 1 devs) 0 in
  key.(0) <- Netlist.node_count nl;
  let pos = ref 1 in
  let put v =
    key.(!pos) <- v;
    incr pos
  in
  Array.iter
    (fun d ->
      match d with
      | Netlist.Resistor { np; nn; _ } -> put 0; put np; put nn
      | Netlist.Capacitor { np; nn; _ } -> put 1; put np; put nn
      | Netlist.Isource { np; nn; _ } -> put 2; put np; put nn
      | Netlist.Switch { np; nn; _ } -> put 3; put np; put nn
      | Netlist.Vsource { v_name; np; nn; _ } ->
        put 4; put np; put nn; put (branch nl v_name)
      | Netlist.Mos { d; g; s; b; _ } -> put 5; put d; put g; put s; put b
      | Netlist.Vcvs { e_name; p; n; cp; cn; _ } ->
        put 6; put p; put n; put cp; put cn; put (branch nl e_name))
    devs;
  key

module Topologies = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) b = a = b
  let hash (k : t) = Array.fold_left (fun h v -> (h * 65599) + v) 0 k land max_int
end)

let topologies : topology Topologies.t = Topologies.create 16

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
      if Hashtbl.length cache >= max_cached_topologies then begin
        (* a compiled topology holds its entry: drop those too, so every
           context built from here on starts from a fresh symbolic *)
        Hashtbl.reset cache;
        Topologies.reset topologies
      end;
      let e = { sym = None } in
      Hashtbl.replace cache key (ref [ (pat, e) ]);
      e
  in
  Mutex.unlock cache_mutex;
  entry

(* Two recording passes of [assemble_core], once per topology; the
   companion pass (a superset of the open one) also yields the pattern
   entries. *)
let compile nl =
  let n = Netlist.unknown_count nl in
  let nv = Netlist.node_count nl - 1 in
  let x0 = Vec.create n in
  let n_caps = cap_count nl in
  let dummy_companion =
    Cap_companion { geq = Array.make n_caps 1.0; ieq = Array.make n_caps 0.0 }
  in
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
  let devs = Netlist.device_array nl in
  {
    n_nodes = nv + 1;
    n_devices = Array.length devs;
    pat;
    prog_open = to_prog calls_open;
    prog_companion = to_prog calls_companion;
    branch_row =
      Array.map
        (function
          | Netlist.Vsource { v_name = name; _ } | Netlist.Vcvs { e_name = name; _ } ->
            nv + branch nl name
          | _ -> -1)
        devs;
    entry = intern_pattern pat;
  }

(* Compiled once per topology and shared read-only by every domain. When
   two domains compile the same key, the first to publish wins (the two
   are equal, and intern the same symbolic entry). *)
let topology nl =
  let key = topology_key nl in
  match Mutex.protect cache_mutex (fun () -> Topologies.find_opt topologies key) with
  | Some t -> t
  | None ->
    let t = compile nl in
    Mutex.protect cache_mutex (fun () ->
        match Topologies.find_opt topologies key with
        | Some first -> first
        | None ->
          if Topologies.length topologies >= max_cached_topologies then
            Topologies.reset topologies;
          Topologies.replace topologies key t;
          t)

(* ------------------------------------------------------------------ *)
(* The compiled stamping loop                                          *)
(* ------------------------------------------------------------------ *)

(* [assemble_core]'s float ops, in its order, as one loop over the
   netlist's device array: slots come from the topology's program, rows
   from the nodes, values from the devices. Nothing in it allocates
   under [Cap_open] with constant sources. Dune's dev profile compiles
   [-opaque], so a float passed to or returned from another module's
   function is boxed: the loop adds into the matrix's value buffer
   itself, reads [Dc] waveforms in place instead of calling
   [Stimulus.value], and hands the MOS model its voltages in an array
   ([Mosfet.eval_into]). The helpers are inlined, so their floats stay
   unboxed; each returns the advanced program cursor. *)

(* [stamp_f] *)
let[@inline] add_f (res : float array) node i =
  if node <> 0 then res.(node - 1) <- res.(node - 1) +. i

(* one [jadd] call: the program's next slot *)
let[@inline] add_slot (vals : Sparse.fbuf) (prog : int array) jac cur g =
  if jac then begin
    let s = prog.(cur) in
    Bigarray.Array1.unsafe_set vals s (Bigarray.Array1.unsafe_get vals s +. g)
  end;
  cur + 1

(* [stamp_j] *)
let[@inline] add_j vals prog jac cur r c g =
  if r <> 0 && c <> 0 then add_slot vals prog jac cur g else cur

(* [stamp_conductance] *)
let[@inline] add_conductance vals prog jac cur a b g =
  let cur = add_j vals prog jac cur a a g in
  let cur = add_j vals prog jac cur b b g in
  let cur = add_j vals prog jac cur a b (-.g) in
  add_j vals prog jac cur b a (-.g)

(* [stamp_resistor_like] *)
let[@inline] add_resistor_like vals prog jac res x cur np nn ohms =
  let g = 1.0 /. ohms in
  let i = g *. (node_voltage_of x np -. node_voltage_of x nn) in
  add_f res np i;
  add_f res nn (-.i);
  add_conductance vals prog jac cur np nn g

(* [Stimulus.value], with the constant case read in place *)
let[@inline] wave_value wave time =
  match wave with Stimulus.Dc v -> v | w -> Stimulus.value w time

(* The [+-1] entries a voltage source or VCVS puts in its branch column
   (at rows [p], [n]) and, in the same order, in its branch row. *)
let[@inline] add_branch_pair vals prog jac cur p n =
  let cur = if p <> 0 then add_slot vals prog jac cur 1.0 else cur in
  if n <> 0 then add_slot vals prog jac cur (-1.0) else cur

(* The branch current's KCL terms and its column entries; the branch
   equation's own terms follow (see [assemble_core]). *)
let[@inline] add_branch_kcl vals prog jac res x cur bi p n =
  let ib = x.(bi) in
  add_f res p ib;
  add_f res n (-.ib);
  add_branch_pair vals prog jac cur p n

let stamp topo (io : float array) (vals : Sparse.fbuf) nl ~(x : float array) ~time
    ~source_scale ~gmin ~cap_policy ~jac (res : float array) =
  let devs = Netlist.device_array nl in
  if Array.length devs <> topo.n_devices || Netlist.node_count nl <> topo.n_nodes then
    invalid_arg "Mna: the netlist has changed structure since its context was built";
  let prog =
    match cap_policy with
    | Cap_open -> topo.prog_open
    | Cap_companion _ -> topo.prog_companion
  in
  let proc = Netlist.process nl in
  let cur = ref 0 and cap_idx = ref 0 in
  for k = 0 to Array.length devs - 1 do
    match devs.(k) with
    | Netlist.Resistor { np; nn; ohms; _ } ->
      cur := add_resistor_like vals prog jac res x !cur np nn ohms
    | Netlist.Switch { np; nn; r_on; r_off; closed_at; _ } ->
      cur :=
        add_resistor_like vals prog jac res x !cur np nn
          (if closed_at time then r_on else r_off)
    | Netlist.Capacitor { np; nn; _ } -> begin
      let ci = !cap_idx in
      incr cap_idx;
      match cap_policy with
      | Cap_open -> ()
      | Cap_companion { geq; ieq } ->
        let geq = geq.(ci) in
        let i = (geq *. (node_voltage_of x np -. node_voltage_of x nn)) +. ieq.(ci) in
        add_f res np i;
        add_f res nn (-.i);
        cur := add_conductance vals prog jac !cur np nn geq
    end
    | Netlist.Isource { np; nn; wave; _ } ->
      let i = source_scale *. wave_value wave time in
      add_f res np i;
      add_f res nn (-.i)
    | Netlist.Vsource { np; nn; wave; _ } ->
      let bi = topo.branch_row.(k) in
      cur := add_branch_kcl vals prog jac res x !cur bi np nn;
      let vval = source_scale *. wave_value wave time in
      res.(bi) <- res.(bi) +. (node_voltage_of x np -. node_voltage_of x nn -. vval);
      cur := add_branch_pair vals prog jac !cur np nn
    | Netlist.Vcvs { p; n; cp; cn; gain; _ } ->
      let bi = topo.branch_row.(k) in
      cur := add_branch_kcl vals prog jac res x !cur bi p n;
      let vc = node_voltage_of x cp -. node_voltage_of x cn in
      res.(bi) <- res.(bi) +. (node_voltage_of x p -. node_voltage_of x n -. (gain *. vc));
      cur := add_branch_pair vals prog jac !cur p n;
      if cp <> 0 then cur := add_slot vals prog jac !cur (-.gain);
      if cn <> 0 then cur := add_slot vals prog jac !cur gain
    | Netlist.Mos { d; g; s; b; polarity; w; l; mult; _ } ->
      let params = Process.mos proc polarity in
      io.(0) <- node_voltage_of x g -. node_voltage_of x s;
      io.(1) <- node_voltage_of x d -. node_voltage_of x s;
      io.(2) <- node_voltage_of x b -. node_voltage_of x s;
      ignore (Mosfet.eval_into params polarity ~w ~l io : Mosfet.region);
      let ids = mult *. io.(3) in
      let gm = mult *. io.(4) and gds = mult *. io.(5) and gmb = mult *. io.(6) in
      add_f res d ids;
      add_f res s (-.ids);
      let c = !cur in
      let c = add_j vals prog jac c d g gm in
      let c = add_j vals prog jac c d d gds in
      let c = add_j vals prog jac c d b gmb in
      let c = add_j vals prog jac c d s (-.(gm +. gds +. gmb)) in
      let c = add_j vals prog jac c s g (-.gm) in
      let c = add_j vals prog jac c s d (-.gds) in
      let c = add_j vals prog jac c s b (-.gmb) in
      cur := add_j vals prog jac c s s (gm +. gds +. gmb)
  done;
  (* gmin *)
  for nd = 1 to topo.n_nodes - 1 do
    cur := add_slot vals prog jac !cur gmin;
    res.(nd - 1) <- res.(nd - 1) +. (gmin *. x.(nd - 1))
  done

(* ------------------------------------------------------------------ *)
(* Contexts                                                            *)
(* ------------------------------------------------------------------ *)

(* The sparse state behind a production context: the shared topology,
   and this context's own value buffers. *)
type sparse_lu = {
  topo : topology;
  mat : Sparse.t;
  io : float array;  (* [Mosfet.eval_into]'s voltages and results *)
  mutable numeric : Sparse.numeric option;
}

type solver =
  | Sparse_lu of sparse_lu
  | Dense_lu of { mutable jac : Mat.t }
      (* the oracle: the last [assemble]d Jacobian, solved by [Mat.solve] *)

type ctx = { nl : Netlist.t; res : Vec.t; solver : solver }

(* set by [Oracle.with_dense] on the calling domain *)
let dense = Domain.DLS.new_key (fun () -> false)

let context nl =
  let n = Netlist.unknown_count nl in
  let solver =
    if Domain.DLS.get dense then Dense_lu { jac = Mat.create n n }
    else
      let topo = topology nl in
      Sparse_lu { topo; mat = Sparse.create topo.pat; io = Array.make 7 0.0; numeric = None }
  in
  { nl; res = Vec.create n; solver }

let ctx_netlist ctx = ctx.nl
let ctx_residual ctx = ctx.res

let assemble_into ctx ~x ~time ~source_scale ~gmin ~cap_policy =
  match ctx.solver with
  | Sparse_lu lu ->
    Sparse.clear lu.mat;
    Array.fill ctx.res 0 (Array.length ctx.res) 0.0;
    stamp lu.topo lu.io (Sparse.values lu.mat) ctx.nl ~x ~time ~source_scale ~gmin
      ~cap_policy ~jac:true ctx.res
  | Dense_lu d ->
    let jac, res = assemble ctx.nl ~x ~time ~source_scale ~gmin ~cap_policy in
    d.jac <- jac;
    Array.blit res 0 ctx.res 0 (Array.length res)

let residual_into ctx ~x ~time ~source_scale ~gmin ~cap_policy res =
  Array.fill res 0 (Array.length res) 0.0;
  match ctx.solver with
  | Sparse_lu lu ->
    stamp lu.topo lu.io (Sparse.values lu.mat) ctx.nl ~x ~time ~source_scale ~gmin
      ~cap_policy ~jac:false res
  | Dense_lu _ ->
    assemble_core ctx.nl ~x ~time ~source_scale ~gmin ~cap_policy
      ~jadd:(fun _ _ _ -> ())
      ~fadd:(fun i v -> res.(i) <- res.(i) +. v)

let ensure_numeric lu =
  match lu.numeric with
  | Some num -> num
  | None ->
    let entry = lu.topo.entry in
    let sym =
      Mutex.lock cache_mutex;
      let cached = entry.sym in
      Mutex.unlock cache_mutex;
      match cached with
      | Some s -> s
      | None ->
        (* analyze outside the lock (reads only this ctx's matrix);
           first writer wins, racers just recompute an identical value *)
        let s = Sparse.analyze lu.mat in
        Mutex.lock cache_mutex;
        let s =
          match entry.sym with
          | Some existing -> existing
          | None ->
            entry.sym <- Some s;
            Tally.incr cache_analyses;
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

let shared_analyses () = Tally.get cache_analyses

module Oracle = struct
  let with_dense f =
    let prev = Domain.DLS.get dense in
    Domain.DLS.set dense true;
    Fun.protect ~finally:(fun () -> Domain.DLS.set dense prev) f

  let assemble = assemble

  let jacobian ctx =
    match ctx.solver with
    | Sparse_lu lu -> Sparse.to_dense lu.mat
    | Dense_lu d -> Mat.copy d.jac
end
