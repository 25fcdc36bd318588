(* The canonical R-S overlap join, as a client sends it over the wire. *)
let wire =
  Sqp_relalg.Wire.(
    Project
      ( [ "rid"; "sid" ],
        Spatial_join { zl = "zr"; zr = "zs"; left = Scan "R"; right = Scan "S" } ))
